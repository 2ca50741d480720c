// Package netsim simulates the network plumbing Fireworks needs to run
// many microVMs restored from the *same* snapshot (§3.5 of the paper):
// every clone wakes up with identical guest IP and MAC addresses, so each
// clone is placed in its own network namespace with a tap device and an
// iptables-style NAT rule translating a unique external IP to the cloned
// guest IP.
//
// The package detects the exact failure the design prevents: attaching
// two devices with the same address to one namespace is an address
// conflict error.
package netsim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/faults"
)

// Errors returned by the network simulator.
var (
	ErrAddrConflict = errors.New("netsim: address conflict in namespace")
	ErrNoRoute      = errors.New("netsim: no route to host")
	ErrExhausted    = errors.New("netsim: external IP pool exhausted")
)

// Addr is an IPv4 address in dotted-quad form. Using a string keeps the
// simulation honest about identity without re-implementing net.IP.
type Addr string

// Packet is the unit of simulated traffic.
type Packet struct {
	Src Addr
	Dst Addr
}

// Tap is a tap device inside a namespace, attached to one guest address.
type Tap struct {
	Name  string
	Guest Addr
	MAC   string
	// Deliver receives packets routed to the guest address. Nil taps
	// drop traffic (guest not listening).
	Deliver func(Packet)
}

// NATRule maps an external (host-visible) address to an internal guest
// address, modeling a DNAT entry in the namespace's iptables.
type NATRule struct {
	External Addr
	Internal Addr
}

// Namespace is one network namespace holding taps and NAT rules.
type Namespace struct {
	name  string
	taps  map[string]*Tap // by device name
	byIP  map[Addr]*Tap
	rules []NATRule
}

// Name returns the namespace name.
func (ns *Namespace) Name() string { return ns.name }

// Router owns all namespaces and the external IP pool of one host.
type Router struct {
	mu         sync.Mutex
	namespaces map[string]*Namespace
	external   map[Addr]*Namespace // external IP -> owning namespace
	nextIP     int
	poolSize   int

	// faults, when attached, injects failures at the netsim.transfer
	// site on every Send (nil-safe).
	faults *faults.Plane
}

// AttachFaults arms the router's fault-injection site.
func (r *Router) AttachFaults(p *faults.Plane) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = p
}

// NewRouter creates a router with an external IP pool of poolSize
// addresses (10.200.x.y).
func NewRouter(poolSize int) *Router {
	return &Router{
		namespaces: make(map[string]*Namespace),
		external:   make(map[Addr]*Namespace),
		poolSize:   poolSize,
	}
}

// CreateNamespace makes a new, empty network namespace.
func (r *Router) CreateNamespace(name string) (*Namespace, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.namespaces[name]; ok {
		return nil, fmt.Errorf("netsim: namespace %q already exists", name)
	}
	ns := &Namespace{
		name: name,
		taps: make(map[string]*Tap),
		byIP: make(map[Addr]*Tap),
	}
	r.namespaces[name] = ns
	return ns, nil
}

// DeleteNamespace removes a namespace and releases its external IPs.
func (r *Router) DeleteNamespace(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns, ok := r.namespaces[name]
	if !ok {
		return fmt.Errorf("netsim: namespace %q not found", name)
	}
	for ip, owner := range r.external {
		if owner == ns {
			delete(r.external, ip)
		}
	}
	delete(r.namespaces, name)
	return nil
}

// AttachTap attaches a tap device to the namespace. Two taps with the
// same guest address in one namespace is the clone conflict §3.5 exists
// to avoid, and returns ErrAddrConflict. The same device *name* (tap0) in
// different namespaces is explicitly fine.
func (r *Router) AttachTap(ns *Namespace, tap *Tap) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := ns.taps[tap.Name]; ok {
		return fmt.Errorf("netsim: device %s already exists in namespace %s: %w", tap.Name, ns.name, ErrAddrConflict)
	}
	if _, ok := ns.byIP[tap.Guest]; ok {
		return fmt.Errorf("netsim: guest IP %s already bound in namespace %s: %w", tap.Guest, ns.name, ErrAddrConflict)
	}
	ns.taps[tap.Name] = tap
	ns.byIP[tap.Guest] = tap
	return nil
}

// AllocExternal allocates a unique external IP for the namespace and
// installs a NAT rule external -> guest.
func (r *Router) AllocExternal(ns *Namespace, guest Addr) (Addr, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.external) >= r.poolSize {
		return "", ErrExhausted
	}
	r.nextIP++
	ip := Addr(fmt.Sprintf("10.200.%d.%d", r.nextIP/250, r.nextIP%250+1))
	r.external[ip] = ns
	ns.rules = append(ns.rules, NATRule{External: ip, Internal: guest})
	return ip, nil
}

// Send routes a packet addressed to an external IP: the owning
// namespace's NAT translates the destination to the guest IP and the
// matching tap delivers it. This is the host→guest path of Figure 5.
func (r *Router) Send(pkt Packet) error {
	if err := r.faults.InjectTraced(faults.SiteNetTransfer, nil, nil, 0); err != nil {
		return fmt.Errorf("netsim: send to %s: %w", pkt.Dst, err)
	}
	r.mu.Lock()
	ns, ok := r.external[pkt.Dst]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("netsim: %s: %w", pkt.Dst, ErrNoRoute)
	}
	var internal Addr
	found := false
	for _, rule := range ns.rules {
		if rule.External == pkt.Dst {
			internal = rule.Internal
			found = true
			break
		}
	}
	if !found {
		r.mu.Unlock()
		return fmt.Errorf("netsim: no NAT rule for %s in %s: %w", pkt.Dst, ns.name, ErrNoRoute)
	}
	tap, ok := ns.byIP[internal]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("netsim: no tap for %s in %s: %w", internal, ns.name, ErrNoRoute)
	}
	translated := pkt
	translated.Dst = internal
	if tap.Deliver != nil {
		tap.Deliver(translated)
	}
	return nil
}

// Reply translates a guest-originated packet's source address back to
// the namespace's external IP (SNAT), the guest→host path of Figure 5.
func (r *Router) Reply(ns *Namespace, pkt Packet) (Packet, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rule := range ns.rules {
		if rule.Internal == pkt.Src {
			out := pkt
			out.Src = rule.External
			return out, nil
		}
	}
	return Packet{}, fmt.Errorf("netsim: no SNAT rule for %s in %s: %w", pkt.Src, ns.name, ErrNoRoute)
}

// NamespaceCount returns the number of live namespaces.
func (r *Router) NamespaceCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.namespaces)
}
