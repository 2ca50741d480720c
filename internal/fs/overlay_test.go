package fs

import "testing"

func newOverlayWithLower(t *testing.T) (*Overlay, *MemFS) {
	t.Helper()
	lower := NewMemFS()
	if err := lower.WriteFile("/etc/conf", []byte("base-conf")); err != nil {
		t.Fatal(err)
	}
	if err := lower.WriteFile("/app/code.js", []byte("module")); err != nil {
		t.Fatal(err)
	}
	return NewOverlay(lower), lower
}

func TestOverlayReadThrough(t *testing.T) {
	o, _ := newOverlayWithLower(t)
	data, err := o.ReadFile("/etc/conf")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "base-conf" {
		t.Fatalf("read %q", data)
	}
}

func TestOverlayWriteShadowsLower(t *testing.T) {
	o, lower := newOverlayWithLower(t)
	o.WriteFile("/etc/conf", []byte("custom"))
	data, _ := o.ReadFile("/etc/conf")
	if string(data) != "custom" {
		t.Fatalf("read %q", data)
	}
	// Lower layer untouched.
	base, _ := lower.ReadFile("/etc/conf")
	if string(base) != "base-conf" {
		t.Fatal("lower layer mutated")
	}
}

func TestOverlayCopyUpOnAppend(t *testing.T) {
	o, lower := newOverlayWithLower(t)
	if err := o.Append("/etc/conf", []byte("+extra")); err != nil {
		t.Fatal(err)
	}
	data, _ := o.ReadFile("/etc/conf")
	if string(data) != "base-conf+extra" {
		t.Fatalf("read %q", data)
	}
	base, _ := lower.ReadFile("/etc/conf")
	if string(base) != "base-conf" {
		t.Fatal("append leaked into lower layer")
	}
}
