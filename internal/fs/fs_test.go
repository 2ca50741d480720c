package fs

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestWriteRead(t *testing.T) {
	m := NewMemFS()
	if err := m.WriteFile("/a/b/c.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := m.ReadFile("/a/b/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("read %q", data)
	}
	// Paths normalize.
	if _, err := m.ReadFile("a/b/../b/c.txt"); err != nil {
		t.Fatalf("normalized path: %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	m := NewMemFS()
	_, err := m.ReadFile("/nope")
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwrite(t *testing.T) {
	m := NewMemFS()
	m.WriteFile("/f", []byte("one"))
	m.WriteFile("/f", []byte("two"))
	data, _ := m.ReadFile("/f")
	if string(data) != "two" {
		t.Fatalf("read %q", data)
	}
}

func TestAppend(t *testing.T) {
	m := NewMemFS()
	m.Append("/log", []byte("a"))
	m.Append("/log", []byte("b"))
	data, _ := m.ReadFile("/log")
	if string(data) != "ab" {
		t.Fatalf("read %q", data)
	}
}

func TestWriteOverDirFails(t *testing.T) {
	m := NewMemFS()
	m.WriteFile("/dir/f", []byte("x"))
	if err := m.WriteFile("/dir", []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.ReadFile("/dir"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read dir err = %v", err)
	}
}

func TestFileAsDirFails(t *testing.T) {
	m := NewMemFS()
	m.WriteFile("/f", []byte("x"))
	if err := m.WriteFile("/f/child", []byte("y")); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteFileCopiesData(t *testing.T) {
	m := NewMemFS()
	buf := []byte("abc")
	m.WriteFile("/f", buf)
	buf[0] = 'X'
	data, _ := m.ReadFile("/f")
	if string(data) != "abc" {
		t.Fatal("stored data aliases caller buffer")
	}
	data[0] = 'Y'
	again, _ := m.ReadFile("/f")
	if string(again) != "abc" {
		t.Fatal("returned data aliases stored buffer")
	}
}

// TestWriteReadRoundTripProperty: anything written is read back intact
// under arbitrary (valid) names and contents.
func TestWriteReadRoundTripProperty(t *testing.T) {
	m := NewMemFS()
	f := func(name string, content []byte) bool {
		if name == "" {
			return true
		}
		// Build a safe single-segment path from arbitrary input.
		path := "/p-" + sanitize(name)
		if err := m.WriteFile(path, content); err != nil {
			return false
		}
		got, err := m.ReadFile(path)
		if err != nil {
			return false
		}
		return string(got) == string(content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && i < 40; i++ {
		c := s[i]
		if c == '/' || c == 0 || c == '.' {
			c = '_'
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		out = append(out, 'x')
	}
	return string(out)
}
