package fs

import "errors"

// Overlay is an overlayfs-style union filesystem: reads fall through from
// a writable upper layer to a read-only lower layer; writes always go to
// the upper layer (copy-up for appends). This models how an OpenWhisk
// container layers a writable scratch directory over the shared runtime
// image.
type Overlay struct {
	upper *MemFS
	lower FS
}

// NewOverlay returns an overlay with a fresh upper layer over lower.
func NewOverlay(lower FS) *Overlay {
	return &Overlay{upper: NewMemFS(), lower: lower}
}

// WriteFile implements FS: writes always land in the upper layer.
func (o *Overlay) WriteFile(p string, data []byte) error {
	return o.upper.WriteFile(p, data)
}

// ReadFile implements FS.
func (o *Overlay) ReadFile(p string) ([]byte, error) {
	data, err := o.upper.ReadFile(p)
	if errors.Is(err, ErrNotExist) {
		return o.lower.ReadFile(p)
	}
	return data, err
}

// Append implements FS, performing copy-up when the file only exists in
// the lower layer.
func (o *Overlay) Append(p string, data []byte) error {
	if o.upper.missing(p) {
		if lowerData, lerr := o.lower.ReadFile(p); lerr == nil {
			if werr := o.upper.WriteFile(p, lowerData); werr != nil {
				return werr
			}
		}
	}
	return o.upper.Append(p, data)
}
