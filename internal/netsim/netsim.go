// Package netsim simulates the network plumbing Fireworks needs to run
// many microVMs restored from the *same* snapshot (§3.5 of the paper):
// every clone wakes up with identical guest IP and MAC addresses, so each
// clone is placed in its own network namespace with a tap device and an
// iptables-style NAT rule translating a unique external IP to the cloned
// guest IP.
//
// The NAT is charged and bounded, not routed: each restore sets up one
// namespace, tap and pooled external IP, and no packet crosses it. The
// package detects the exact failure the design prevents: attaching two
// devices with the same address to one namespace is an address conflict
// error.
package netsim

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the network simulator.
var (
	ErrAddrConflict = errors.New("netsim: address conflict in namespace")
	ErrExhausted    = errors.New("netsim: external IP pool exhausted")
)

// Addr is an IPv4 address in dotted-quad form. Using a string keeps the
// simulation honest about identity without re-implementing net.IP.
type Addr string

// Tap is a tap device inside a namespace, attached to one guest address.
type Tap struct {
	Name  string
	Guest Addr
}

// Namespace is one network namespace holding taps.
type Namespace struct {
	name string
	taps map[string]*Tap // by device name
	byIP map[Addr]*Tap
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

// AllocExternal allocates a unique external IP for the namespace, the
// host-visible end of its NAT entry.
func (r *Router) AllocExternal(ns *Namespace) (Addr, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.external) >= r.poolSize {
		return "", ErrExhausted
	}
	r.nextIP++
	ip := Addr(fmt.Sprintf("10.200.%d.%d", r.nextIP/250, r.nextIP%250+1))
	r.external[ip] = ns
	return ip, nil
}

// NamespaceCount returns the number of live namespaces.
func (r *Router) NamespaceCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.namespaces)
}
