package netsim

import (
	"errors"
	"fmt"
	"testing"
)

func TestCloneIsolationViaNamespaces(t *testing.T) {
	// The §3.5 scenario: two microVMs restored from the same snapshot
	// have identical guest IPs and tap names; separate namespaces make
	// that legal, and NAT routes distinct external IPs to each.
	r := NewRouter(16)
	const guestIP = Addr("192.168.0.2")

	var got1, got2 []Packet
	ns1, err := r.CreateNamespace("vm1")
	if err != nil {
		t.Fatal(err)
	}
	ns2, err := r.CreateNamespace("vm2")
	if err != nil {
		t.Fatal(err)
	}
	tap1 := &Tap{Name: "tap0", Guest: guestIP, Deliver: func(p Packet) { got1 = append(got1, p) }}
	tap2 := &Tap{Name: "tap0", Guest: guestIP, Deliver: func(p Packet) { got2 = append(got2, p) }}
	if err := r.AttachTap(ns1, tap1); err != nil {
		t.Fatal(err)
	}
	if err := r.AttachTap(ns2, tap2); err != nil {
		t.Fatalf("same tap name + guest IP in a different namespace must be fine: %v", err)
	}
	ext1, err := r.AllocExternal(ns1, guestIP)
	if err != nil {
		t.Fatal(err)
	}
	ext2, err := r.AllocExternal(ns2, guestIP)
	if err != nil {
		t.Fatal(err)
	}
	if ext1 == ext2 {
		t.Fatal("external IPs collide")
	}

	if err := r.Send(Packet{Src: "10.0.0.1", Dst: ext1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Send(Packet{Src: "10.0.0.2", Dst: ext2}); err != nil {
		t.Fatal(err)
	}
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("delivery counts: %d, %d", len(got1), len(got2))
	}
	// DNAT translated the destination to the (identical) guest IP.
	if got1[0].Dst != guestIP || got2[0].Dst != guestIP {
		t.Fatalf("DNAT results: %v, %v", got1[0].Dst, got2[0].Dst)
	}
	if got1[0].Src != "10.0.0.1" || got2[0].Src != "10.0.0.2" {
		t.Fatal("packets crossed namespaces")
	}
}

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

func TestSNATReply(t *testing.T) {
	r := NewRouter(4)
	ns, _ := r.CreateNamespace("vm1")
	guest := Addr("192.168.0.2")
	if err := r.AttachTap(ns, &Tap{Name: "tap0", Guest: guest}); err != nil {
		t.Fatal(err)
	}
	ext, _ := r.AllocExternal(ns, guest)
	out, err := r.Reply(ns, Packet{Src: guest, Dst: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != ext {
		t.Fatalf("SNAT src = %v, want %v", out.Src, ext)
	}
	if _, err := r.Reply(ns, Packet{Src: "1.2.3.4"}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("reply without rule: %v", err)
	}
}

func TestNoRoute(t *testing.T) {
	r := NewRouter(4)
	err := r.Send(Packet{Dst: "10.200.0.1"})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolExhaustion(t *testing.T) {
	r := NewRouter(2)
	for i := 0; i < 2; i++ {
		ns, _ := r.CreateNamespace(fmt.Sprintf("vm%d", i))
		if _, err := r.AllocExternal(ns, "192.168.0.2"); err != nil {
			t.Fatal(err)
		}
	}
	ns, _ := r.CreateNamespace("vm-extra")
	if _, err := r.AllocExternal(ns, "192.168.0.2"); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteNamespaceReleasesIPs(t *testing.T) {
	r := NewRouter(1)
	ns, _ := r.CreateNamespace("vm1")
	if _, err := r.AllocExternal(ns, "192.168.0.2"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteNamespace("vm1"); err != nil {
		t.Fatal(err)
	}
	if r.NamespaceCount() != 0 {
		t.Fatal("namespace still counted")
	}
	ns2, _ := r.CreateNamespace("vm2")
	if _, err := r.AllocExternal(ns2, "192.168.0.2"); err != nil {
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
		ext, err := r.AllocExternal(ns, "192.168.0.2")
		if err != nil {
			t.Fatal(err)
		}
		if seen[ext] {
			t.Fatalf("duplicate external IP %v at vm %d", ext, i)
		}
		seen[ext] = true
	}
}
