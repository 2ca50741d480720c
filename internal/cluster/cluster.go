// Package cluster adds the controller tier of Figure 1 above single
// hosts: a fleet of backend servers, each with its own memory, network,
// hypervisor, and Fireworks framework, behind a placement policy. The
// paper evaluates a single machine (§5.1, following prior work); this
// package is the natural multi-host extension — API-gateway requests are
// routed to a backend chosen round-robin, by least memory pressure, or
// by least in-flight load, and hosts that have started swapping are
// avoided entirely.
//
// Function snapshots are installed on every node, which also models the
// §6 remark that snapshot images can live in remote storage and be
// materialized per host.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// Health is a node's availability state. Healthy nodes take traffic
// normally; Probation nodes (repeated transient failures) are only
// picked when no healthy candidate exists; Down nodes (crashed) take
// no traffic until their recovery window elapses.
type Health int32

// Node health states. The numeric values are what the node_state
// gauge reports (platform.HealthHealthy/Probation/Down by contract).
const (
	Healthy   Health = platform.HealthHealthy
	Probation Health = platform.HealthProbation
	Down      Health = platform.HealthDown
)

// String names the health state. It delegates to the shared
// platform-level naming so gauge consumers (GET /healthz, the SLO
// watchdog's fleet probe) and this type can never drift apart.
func (h Health) String() string { return platform.HealthName(int64(h)) }

// Policy selects how invocations are placed on nodes.
type Policy int

// Placement policies.
const (
	// RoundRobin cycles through non-swapping nodes.
	RoundRobin Policy = iota
	// LeastMemory picks the node with the lowest memory usage.
	LeastMemory
	// LeastInflight picks the node with the fewest in-flight
	// invocations.
	LeastInflight
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LeastMemory:
		return "least-memory"
	case LeastInflight:
		return "least-inflight"
	default:
		return "round-robin"
	}
}

// ErrClusterFull is returned when every node is under memory pressure.
var ErrClusterFull = errors.New("cluster: all nodes swapping")

// ErrNoHealthyNode is returned when placement finds nodes with memory
// to spare but every one of them is down or already failed this
// request.
var ErrNoHealthyNode = errors.New("cluster: no healthy node available")

// probeTicks is how often placement canaries a probation node when
// healthy nodes are also available.
const probeTicks = 4

// Node is one backend server.
type Node struct {
	Name     string
	Env      *platform.Env
	Platform platform.Platform

	inflight    atomic.Int64
	invocations atomic.Int64

	// health is written under the cluster mutex but stored atomically
	// so accessors read it lock-free.
	health atomic.Int32
	// consecutive transient failures and the recovery deadline (in
	// placement ticks) are guarded by the cluster mutex.
	consecutive int
	recoverAt   uint64

	invokeCnt *metrics.Counter
	inflightG *metrics.Gauge
	healthG   *metrics.Gauge
}

// Inflight returns the node's current in-flight invocation count.
func (n *Node) Inflight() int64 { return n.inflight.Load() }

// Invocations returns the node's lifetime invocation count.
func (n *Node) Invocations() int64 { return n.invocations.Load() }

// Health returns the node's availability state.
func (n *Node) Health() Health { return Health(n.health.Load()) }

// setHealth transitions the node's state and mirrors it to the
// node_state gauge. Callers hold the cluster mutex.
func (n *Node) setHealth(h Health) {
	n.health.Store(int32(h))
	n.healthG.Set(int64(h))
}

// FailoverPolicy tunes cluster-level resilience to transient node
// failures (see SetFailover). The zero value disables failover.
type FailoverPolicy struct {
	// MaxFailovers is how many additional placements one request may
	// try after a transient failure; 0 disables failover entirely.
	MaxFailovers int
	// ProbationThreshold is how many consecutive transient failures
	// put a node on probation (default 3).
	ProbationThreshold int
	// DownTicks is how many placement ticks a crashed node stays down
	// before re-entering service on probation (default 25). Ticks
	// advance on every placement, including failed ones, so recovery
	// cannot deadlock.
	DownTicks int
}

// Cluster is a set of backend nodes behind one placement policy.
type Cluster struct {
	policy  Policy
	nodes   []*Node
	metrics *metrics.Registry
	// journal is the shared event journal every node records into, so a
	// request's trace survives failover hops across hosts.
	journal *events.Journal
	// faults is the shared fault plane armed on every node's Env (nil
	// when the cluster runs fault-free); the cluster.node site draws
	// once per placement and can crash the chosen node.
	faults *faults.Plane

	placements *metrics.Counter
	rejections *metrics.Counter
	failovers  *metrics.Counter
	crashes    *metrics.Counter

	mu       sync.Mutex
	rr       int
	ticks    uint64
	failover FailoverPolicy
}

// New builds a cluster of n nodes. mk constructs each node's platform
// from its private host environment (e.g. a Fireworks framework).
// Every node reports into one shared metrics registry (envCfg.Metrics,
// or a fresh one), so host-level quantities — restore latencies, CoW
// faults, queue dwell — aggregate fleet-wide in a single dump.
func New(n int, policy Policy, envCfg platform.EnvConfig,
	mk func(env *platform.Env) platform.Platform) *Cluster {
	reg := envCfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		envCfg.Metrics = reg
	}
	journal := envCfg.Events
	if journal == nil {
		journal = events.NewJournal(0)
		envCfg.Events = journal
	}
	c := &Cluster{
		policy:     policy,
		metrics:    reg,
		journal:    journal,
		faults:     envCfg.Faults,
		placements: reg.Counter(metrics.Name("cluster_placements_total", "policy", policy.String())),
		rejections: reg.Counter("cluster_rejections_total"),
		failovers:  reg.Counter("failovers_total"),
		crashes:    reg.Counter("cluster_node_crashes_total"),
		failover:   FailoverPolicy{ProbationThreshold: 3, DownTicks: 25},
	}
	for i := 0; i < n; i++ {
		env := platform.NewEnv(envCfg)
		name := fmt.Sprintf("node-%02d", i)
		c.nodes = append(c.nodes, &Node{
			Name:      name,
			Env:       env,
			Platform:  mk(env),
			invokeCnt: reg.Counter(metrics.Name("cluster_node_invocations_total", "node", name)),
			inflightG: reg.Gauge(metrics.Name("cluster_node_inflight", "node", name)),
			healthG:   reg.Gauge(metrics.Name("node_state", "node", name)),
		})
	}
	return c
}

// SetFailover configures cluster-level failover: how many re-placements
// one request gets after a transient failure, and the health-state
// thresholds. Zero-valued fields keep their defaults (probation after
// 3 consecutive transient failures, 25-tick crash recovery) except
// MaxFailovers, which stays as given — SetFailover(FailoverPolicy{})
// turns failover off while keeping crash bookkeeping.
func (c *Cluster) SetFailover(p FailoverPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.ProbationThreshold <= 0 {
		p.ProbationThreshold = 3
	}
	if p.DownTicks <= 0 {
		p.DownTicks = 25
	}
	c.failover = p
}

// Metrics returns the cluster's shared registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// Journal returns the cluster's shared event journal.
func (c *Cluster) Journal() *events.Journal { return c.journal }

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Policy returns the placement policy.
func (c *Cluster) Policy() Policy { return c.policy }

// Install deploys a function on every node (each node materializes its
// own snapshot). The first error aborts and is returned.
func (c *Cluster) Install(fn platform.Function) error {
	_, err := c.InstallReported(fn)
	return err
}

// InstallReported is Install returning the first node's install report
// (every node materializes an equivalent snapshot, so one report is
// representative of the fleet).
func (c *Cluster) InstallReported(fn platform.Function) (*platform.InstallReport, error) {
	var rep *platform.InstallReport
	for _, node := range c.nodes {
		r, err := node.Platform.Install(fn)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", node.Name, err)
		}
		if rep == nil {
			rep = r
		}
	}
	return rep, nil
}

// Remove undeploys a function everywhere.
func (c *Cluster) Remove(name string) error {
	for _, node := range c.nodes {
		if err := node.Platform.Remove(name); err != nil {
			return fmt.Errorf("cluster: %s: %w", node.Name, err)
		}
	}
	return nil
}

// pick selects a node per the policy, skipping nodes that are swapping,
// and reserves one in-flight slot on it. Selection and reservation
// happen atomically under c.mu: a concurrent pick sees every earlier
// reservation, so a burst of simultaneous invocations spreads across
// the fleet instead of all reading the same stale counts and piling
// onto one node. The caller releases the slot when the invocation
// completes.
func (c *Cluster) pick(exclude map[*Node]bool, sc *events.Scope, now time.Duration) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Ticks advance on every placement attempt — successful or not —
	// so crashed nodes always make progress toward recovery.
	c.ticks++
	for _, n := range c.nodes {
		if n.Health() == Down && c.ticks >= n.recoverAt {
			n.consecutive = 0
			n.setHealth(Probation)
		}
	}
	for {
		best, err := c.selectLocked(exclude)
		if err != nil {
			return nil, err
		}
		// One cluster.node draw per placement: a crash fault takes the
		// chosen node out of the fleet and placement retries on the
		// survivors.
		if ferr := c.faults.InjectTraced(faults.SiteClusterNode, nil, sc, now); ferr != nil {
			c.crashes.Inc()
			best.setHealth(Down)
			best.recoverAt = c.ticks + uint64(c.failover.DownTicks)
			sc.Instant("cluster", "node-crash", now, events.A("node", best.Name))
			continue
		}
		best.inflight.Add(1)
		best.inflightG.Add(1)
		c.placements.Inc()
		return best, nil
	}
}

// selectLocked applies the placement policy to the eligible nodes:
// not swapping, not down, not already tried by this request. Healthy
// nodes are preferred; probation nodes serve only when no healthy
// candidate remains. Callers hold c.mu.
func (c *Cluster) selectLocked(exclude map[*Node]bool) (*Node, error) {
	healthy := make([]*Node, 0, len(c.nodes))
	probation := make([]*Node, 0)
	swappingOnly := true
	for _, n := range c.nodes {
		if n.Env.Mem.Swapping() {
			continue
		}
		swappingOnly = false
		if n.Health() == Down || exclude[n] {
			continue
		}
		if n.Health() == Probation {
			probation = append(probation, n)
		} else {
			healthy = append(healthy, n)
		}
	}
	candidates := healthy
	// Probation nodes serve when nothing healthy remains, and every
	// probeTicks-th placement routes to them deliberately — canary
	// traffic, without which a probation node behind healthy peers
	// would never see a request and never redeem itself.
	if len(probation) > 0 && (len(candidates) == 0 || c.ticks%probeTicks == 0) {
		candidates = probation
	}
	if len(candidates) == 0 {
		c.rejections.Inc()
		if swappingOnly && len(c.nodes) > 0 {
			return nil, ErrClusterFull
		}
		return nil, ErrNoHealthyNode
	}
	// Every policy scans from a rotating offset so exact ties spread
	// across the fleet instead of always resolving to the first node
	// (fresh equal nodes would otherwise starve the rest).
	start := c.rr % len(candidates)
	c.rr++
	best := candidates[start]
	for i := 1; i < len(candidates); i++ {
		n := candidates[(start+i)%len(candidates)]
		switch c.policy {
		case LeastMemory:
			// Memory usage only moves once an invocation actually runs,
			// so in-flight reservations tie-break equal usage.
			used, bestUsed := n.Env.Mem.Used(), best.Env.Mem.Used()
			if used < bestUsed || (used == bestUsed && n.Inflight() < best.Inflight()) {
				best = n
			}
		case LeastInflight:
			if n.Inflight() < best.Inflight() {
				best = n
			}
		}
	}
	return best, nil
}

// recordFailure notes a transient failure on a node; enough of them in
// a row demote the node to probation.
func (c *Cluster) recordFailure(n *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n.consecutive++
	if n.consecutive >= c.failover.ProbationThreshold && n.Health() == Healthy {
		n.setHealth(Probation)
	}
}

// recordSuccess clears a node's failure streak and lifts probation.
func (c *Cluster) recordSuccess(n *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n.consecutive = 0
	if n.Health() == Probation {
		n.setHealth(Healthy)
	}
}

// release returns a node's reserved in-flight slot.
func (c *Cluster) release(n *Node) {
	n.inflight.Add(-1)
	n.inflightG.Add(-1)
}

// Invoke routes one invocation to a node and runs it there, returning
// the invocation and the node that served it. The in-flight slot pick
// reserved is held for the duration of the invocation. When failover
// is enabled (SetFailover) a transiently failed invocation is re-placed
// on a node that has not yet failed this request, up to MaxFailovers
// extra placements; permanent errors (unknown function, bad params)
// never fail over — they would fail identically everywhere.
func (c *Cluster) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, *Node, error) {
	c.mu.Lock()
	maxFailovers := c.failover.MaxFailovers
	c.mu.Unlock()
	// Every request gets one trace: either nested under the caller's
	// scope (an API-gateway span) or rooted here. Placement, failover
	// hops, and node crashes all land in it; each attempt's invocation
	// clock restarts at zero, which the exporters normalize.
	sc := opts.Trace
	if sc == nil {
		sc = c.journal.NewScope("cluster", "request", 0, events.A("function", name))
	} else {
		sc.Begin("cluster", "request", 0, events.A("function", name))
	}
	opts.Trace = sc
	var now time.Duration
	finish := func(inv *platform.Invocation, node *Node, ferr error) {
		if inv != nil {
			now = inv.Clock.Now()
		}
		attrs := make([]events.Attr, 0, 2)
		if node != nil {
			attrs = append(attrs, events.A("node", node.Name))
		}
		if ferr != nil {
			attrs = append(attrs, events.A("error", ferr.Error()))
		}
		sc.End(now, attrs...)
	}
	var exclude map[*Node]bool
	var lastPlace events.Ref
	for attempt := 0; ; attempt++ {
		node, err := c.pick(exclude, sc, now)
		if err != nil {
			finish(nil, nil, err)
			return nil, nil, err
		}
		lastPlace = sc.Instant("cluster", "place", now,
			events.A("node", node.Name),
			events.A("policy", c.policy.String()),
			events.A("attempt", strconv.Itoa(attempt+1)))
		sc.SetNode(node.Name)
		inv, err := node.Platform.Invoke(name, params, opts)
		c.release(node)
		if err == nil {
			c.recordSuccess(node)
			node.invocations.Add(1)
			node.invokeCnt.Inc()
			finish(inv, node, nil)
			return inv, node, nil
		}
		if !faults.IsTransient(err) {
			werr := fmt.Errorf("cluster: %s: %w", node.Name, err)
			finish(inv, node, werr)
			return inv, node, werr
		}
		c.recordFailure(node)
		if inv != nil {
			now = inv.Clock.Now()
		}
		if attempt >= maxFailovers {
			werr := fmt.Errorf("cluster: %s: %w", node.Name, err)
			finish(inv, node, werr)
			return inv, node, werr
		}
		c.failovers.Inc()
		// The failover instant links back to the failed placement so the
		// re-placement is causally joined to the attempt it replaces.
		sc.InstantLinked("cluster", "failover", now, lastPlace,
			events.A("from", node.Name), events.A("error", err.Error()))
		if exclude == nil {
			exclude = make(map[*Node]bool, len(c.nodes))
		}
		exclude[node] = true
	}
}

// Invoker adapts a Cluster to callers that invoke by name and have no
// use for the serving node, such as the workflow engine: each call goes
// through normal placement (and failover, when armed), and the serving
// node is recorded on the invocation's trace.
type Invoker struct{ C *Cluster }

// Invoke is Cluster.Invoke without the node.
func (ci Invoker) Invoke(name string, params lang.Value, opts platform.InvokeOptions) (*platform.Invocation, error) {
	inv, _, err := ci.C.Invoke(name, params, opts)
	return inv, err
}

// NodeStats is a point-in-time view of one node.
type NodeStats struct {
	Name        string
	MemUsed     uint64
	Swapping    bool
	Health      Health
	MicroVMs    int
	Invocations int64
}

// Stats snapshots every node.
func (c *Cluster) Stats() []NodeStats {
	out := make([]NodeStats, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, NodeStats{
			Name:        n.Name,
			MemUsed:     n.Env.Mem.Used(),
			Swapping:    n.Env.Mem.Swapping(),
			Health:      n.Health(),
			MicroVMs:    n.Env.HV.VMCount(),
			Invocations: n.Invocations(),
		})
	}
	return out
}

// ExpireIdle runs every node's idle-guest reaper at workload-timeline
// position now, returning the fleet-wide count of terminated guests.
func (c *Cluster) ExpireIdle(now time.Duration) int {
	total := 0
	for _, n := range c.nodes {
		total += n.Platform.ExpireIdle(now)
	}
	return total
}

// WarmCount sums the idle warm guests pooled for a function across the
// fleet.
func (c *Cluster) WarmCount(name string) int {
	total := 0
	for _, n := range c.nodes {
		total += n.Platform.WarmCount(name)
	}
	return total
}

// TotalInvocations sums lifetime invocations across nodes.
func (c *Cluster) TotalInvocations() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.Invocations()
	}
	return total
}
