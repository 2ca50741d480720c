// Package fs implements the in-memory virtual filesystem used by
// simulated guests and containers: a plain hierarchical FS plus an
// overlay filesystem (upper/lower with copy-up) matching how OpenWhisk
// containers layer a writable upper directory over a read-only image.
//
// The package stores data only; I/O *cost* is charged by the sandbox
// layer, which knows whether an operation crosses a 9p boundary
// (microVM), a Sentry/Gofer relay (gVisor), or goes straight to the host
// page cache (container).
package fs

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"sync"
)

// Errors returned by filesystem operations.
var (
	ErrNotExist = errors.New("fs: file does not exist")
	ErrIsDir    = errors.New("fs: is a directory")
	ErrNotDir   = errors.New("fs: not a directory")
)

// FS is the interface implemented by both the plain in-memory filesystem
// and the overlay filesystem.
type FS interface {
	// WriteFile creates or replaces the file at p with data, creating
	// parent directories as needed.
	WriteFile(p string, data []byte) error
	// ReadFile returns the contents of the file at p.
	ReadFile(p string) ([]byte, error)
	// Append appends data to the file at p, creating it if absent.
	Append(p string, data []byte) error
}

// node is a file or directory in a MemFS.
type node struct {
	isDir    bool
	data     []byte
	children map[string]*node
}

// MemFS is a plain in-memory filesystem. It is safe for concurrent use.
type MemFS struct {
	mu   sync.RWMutex
	root *node
}

// NewMemFS returns an empty filesystem with a root directory.
func NewMemFS() *MemFS {
	return &MemFS{root: &node{isDir: true, children: make(map[string]*node)}}
}

// clean normalizes p to a rooted, slash-separated path and splits it.
func splitPath(p string) []string {
	p = path.Clean("/" + p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

func (m *MemFS) lookup(parts []string) (*node, error) {
	n := m.root
	for _, part := range parts {
		if !n.isDir {
			return nil, ErrNotDir
		}
		child, ok := n.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		n = child
	}
	return n, nil
}

// missing reports whether nothing exists at p, without copying data.
func (m *MemFS) missing(p string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, err := m.lookup(splitPath(p))
	return errors.Is(err, ErrNotExist)
}

// mkdirAll walks/creates directories for parts and returns the last dir.
func (m *MemFS) mkdirAll(parts []string) (*node, error) {
	n := m.root
	for _, part := range parts {
		if !n.isDir {
			return nil, ErrNotDir
		}
		child, ok := n.children[part]
		if !ok {
			child = &node{isDir: true, children: make(map[string]*node)}
			n.children[part] = child
		}
		n = child
	}
	if !n.isDir {
		return nil, ErrNotDir
	}
	return n, nil
}

// WriteFile implements FS.
func (m *MemFS) WriteFile(p string, data []byte) error {
	parts := splitPath(p)
	if len(parts) == 0 {
		return ErrIsDir
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, err := m.mkdirAll(parts[:len(parts)-1])
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	if existing, ok := dir.children[name]; ok && existing.isDir {
		return ErrIsDir
	}
	dir.children[name] = &node{data: append([]byte(nil), data...)}
	return nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(p string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup(splitPath(p))
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", p, err)
	}
	if n.isDir {
		return nil, ErrIsDir
	}
	return append([]byte(nil), n.data...), nil
}

// Append implements FS.
func (m *MemFS) Append(p string, data []byte) error {
	parts := splitPath(p)
	if len(parts) == 0 {
		return ErrIsDir
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, err := m.mkdirAll(parts[:len(parts)-1])
	if err != nil {
		return err
	}
	name := parts[len(parts)-1]
	n, ok := dir.children[name]
	if !ok {
		n = &node{}
		dir.children[name] = n
	}
	if n.isDir {
		return ErrIsDir
	}
	n.data = append(n.data, data...)
	return nil
}
