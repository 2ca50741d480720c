package netsim

import (
	"errors"
	"fmt"
	"testing"
)

func TestAddrConflictInOneNamespace(t *testing.T) {
	r := NewRouter(4)
	ns, _ := r.CreateNamespace("vm1")
	if err := r.AttachTap(ns, &Tap{Name: "tap0", Guest: "192.168.0.2"}); err != nil {
		t.Fatal(err)
	}
	err := r.AttachTap(ns, &Tap{Name: "tap1", Guest: "192.168.0.2"})
	if !errors.Is(err, ErrAddrConflict) {
		t.Fatalf("duplicate guest IP: err = %v", err)
	}
	err = r.AttachTap(ns, &Tap{Name: "tap0", Guest: "192.168.0.9"})
	if !errors.Is(err, ErrAddrConflict) {
		t.Fatalf("duplicate device name: err = %v", err)
	}
}

func TestPoolExhaustion(t *testing.T) {
	r := NewRouter(2)
	for i := 0; i < 2; i++ {
		ns, _ := r.CreateNamespace(fmt.Sprintf("vm%d", i))
		if _, err := r.AllocExternal(ns); err != nil {
			t.Fatal(err)
		}
	}
	ns, _ := r.CreateNamespace("vm-extra")
	if _, err := r.AllocExternal(ns); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteNamespaceReleasesIPs(t *testing.T) {
	r := NewRouter(1)
	ns, _ := r.CreateNamespace("vm1")
	if _, err := r.AllocExternal(ns); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteNamespace("vm1"); err != nil {
		t.Fatal(err)
	}
	if r.NamespaceCount() != 0 {
		t.Fatal("namespace still counted")
	}
	ns2, _ := r.CreateNamespace("vm2")
	if _, err := r.AllocExternal(ns2); err != nil {
		t.Fatalf("pool not released: %v", err)
	}
	if err := r.DeleteNamespace("vm-missing"); err == nil {
		t.Fatal("deleting unknown namespace succeeded")
	}
}

func TestDuplicateNamespace(t *testing.T) {
	r := NewRouter(4)
	if _, err := r.CreateNamespace("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateNamespace("x"); err == nil {
		t.Fatal("duplicate namespace created")
	}
}

func TestManyNamespacesUniqueExternals(t *testing.T) {
	r := NewRouter(600)
	seen := make(map[Addr]bool)
	for i := 0; i < 600; i++ {
		ns, err := r.CreateNamespace(fmt.Sprintf("vm%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ext, err := r.AllocExternal(ns)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ext] {
			t.Fatalf("duplicate external IP %v at vm %d", ext, i)
		}
		seen[ext] = true
	}
}
