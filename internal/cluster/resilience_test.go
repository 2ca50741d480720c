package cluster

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

// resilientCluster builds a faulted cluster whose nodes retry and
// whose controller fails over. Profiles stay disarmed so the install
// phase runs clean; tests script faults explicitly or arm profiles
// after install.
func resilientCluster(t *testing.T, n int, plane *faults.Plane, retry faults.RetryPolicy, failover FailoverPolicy) *Cluster {
	t.Helper()
	c := New(n, RoundRobin, platform.EnvConfig{Faults: plane}, func(env *platform.Env) platform.Platform {
		return core.New(env, core.Options{Retry: retry})
	})
	c.SetFailover(failover)
	w := workloads.NetLatency(runtime.LangNode)
	if err := c.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFailoverMasksNodeFailure(t *testing.T) {
	plane := faults.NewPlane(3)
	// No per-node retries: every injected fault fails its invocation,
	// so masking must come from the controller's re-placement.
	c := resilientCluster(t, 3, plane, faults.RetryPolicy{}, FailoverPolicy{MaxFailovers: 2})
	params := platform.MustParams(nil)
	// Three consecutive restore faults: the first placement's pipeline
	// fails, the failover's fails too, the third succeeds elsewhere.
	plane.Enqueue(faults.SiteVMMRestore, faults.KindError, faults.KindError)
	inv, node, err := c.Invoke(invokeName(), params, platform.InvokeOptions{})
	if err != nil {
		t.Fatalf("failover did not mask node failures: %v", err)
	}
	if inv == nil || node == nil {
		t.Fatal("no invocation or node returned")
	}
	if got := c.Metrics().Counter("failovers_total").Value(); got != 2 {
		t.Fatalf("failovers_total = %d, want 2", got)
	}
}

func TestPermanentErrorDoesNotFailOver(t *testing.T) {
	plane := faults.NewPlane(3)
	c := resilientCluster(t, 3, plane, faults.RetryPolicy{}, FailoverPolicy{MaxFailovers: 2})
	_, _, err := c.Invoke("ghost", platform.MustParams(nil), platform.InvokeOptions{})
	if err == nil {
		t.Fatal("invoke of uninstalled function succeeded")
	}
	if got := c.Metrics().Counter("failovers_total").Value(); got != 0 {
		t.Fatalf("failovers_total = %d for a permanent error", got)
	}
}

func TestCrashedNodeRecoversAfterDownTicks(t *testing.T) {
	plane := faults.NewPlane(3)
	c := resilientCluster(t, 2, plane, faults.RetryPolicy{}, FailoverPolicy{MaxFailovers: 1, DownTicks: 4})
	params := platform.MustParams(nil)
	// The next placement draw crashes the chosen node.
	plane.Enqueue(faults.SiteClusterNode, faults.KindCrash)
	if _, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Counter("cluster_node_crashes_total").Value(); got != 1 {
		t.Fatalf("crashes = %d, want 1", got)
	}
	downs := 0
	for _, n := range c.Nodes() {
		if n.Health() == Down {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("%d nodes down, want 1", downs)
	}
	// Enough placements tick the crashed node back into service (on
	// probation), and a success there restores it to Healthy.
	for i := 0; i < 10; i++ {
		if _, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range c.Nodes() {
		if n.Health() != Healthy {
			t.Fatalf("%s still %s after recovery window", n.Name, n.Health())
		}
	}
}

func TestRepeatedTransientFailuresPutNodeOnProbation(t *testing.T) {
	plane := faults.NewPlane(3)
	// Single node: every transient failure lands on it; no failover
	// budget so each Invoke fails once.
	c := resilientCluster(t, 1, plane, faults.RetryPolicy{}, FailoverPolicy{ProbationThreshold: 3})
	params := platform.MustParams(nil)
	node := c.Nodes()[0]
	for i := 0; i < 3; i++ {
		plane.Enqueue(faults.SiteVMMRestore, faults.KindError)
		if _, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{}); err == nil {
			t.Fatal("injected failure masked with no retries and no failover")
		}
	}
	if node.Health() != Probation {
		t.Fatalf("node %s after 3 consecutive transient failures, want probation", node.Health())
	}
	// Probation nodes still serve when they are all there is; success
	// lifts the probation.
	if _, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	if node.Health() != Healthy {
		t.Fatalf("node %s after success, want healthy", node.Health())
	}
	if got := c.Metrics().Gauge(metrics.Name("node_state", "node", "node-00")).Value(); got != int64(Healthy) {
		t.Fatalf("node_state gauge = %d, want %d", got, Healthy)
	}
}

func TestAllNodesDownSurfacesNoHealthyNode(t *testing.T) {
	plane := faults.NewPlane(3)
	c := resilientCluster(t, 2, plane, faults.RetryPolicy{}, FailoverPolicy{MaxFailovers: 0, DownTicks: 1000})
	plane.Enqueue(faults.SiteClusterNode, faults.KindCrash, faults.KindCrash)
	_, _, err := c.Invoke(invokeName(), platform.MustParams(nil), platform.InvokeOptions{})
	if !errors.Is(err, ErrNoHealthyNode) {
		t.Fatalf("err = %v, want ErrNoHealthyNode", err)
	}
}

// TestRemoveRacesInvokeAndInstall drives Remove concurrently with
// Invoke and Install traffic under the race detector: the cluster must
// stay internally consistent (no torn state, no deadlock), whatever
// interleaving wins.
func TestRemoveRacesInvokeAndInstall(t *testing.T) {
	plane := faults.NewPlane(11)
	c := resilientCluster(t, 3, plane, faults.DefaultRetryPolicy(), FailoverPolicy{MaxFailovers: 2})
	w := workloads.NetLatency(runtime.LangNode)
	params := platform.MustParams(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// A racing Remove makes "no function" legal; anything
				// else must still be a clean, classified error.
				_, _, _ = c.Invoke(w.Name, params, platform.InvokeOptions{})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			_ = c.Remove(w.Name)
			_ = c.Install(w.Function)
		}
	}()
	wg.Wait()
	// Converge: one final install must leave every node serving again.
	_ = c.Remove(w.Name)
	if err := c.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Invoke(w.Name, params, platform.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverLeaksNothing races invocations that fail over between
// nodes under injected restore faults: whatever the interleaving, every
// failed attempt must have unwound on its node, leaving no microVM and
// no parameter topic behind.
func TestFailoverLeaksNothing(t *testing.T) {
	plane := faults.NewPlane(17)
	c := resilientCluster(t, 3, plane, faults.DefaultRetryPolicy(), FailoverPolicy{MaxFailovers: 2})
	w := workloads.NetLatency(runtime.LangNode)
	params := platform.MustParams(nil)
	// Everything from here on can fail and be retried/failed over.
	plane.SetProfile(faults.SiteVMMRestore, faults.Profile{ErrorRate: 0.3})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, _, _ = c.Invoke(w.Name, params, platform.InvokeOptions{})
			}
		}()
	}
	wg.Wait()
	for _, n := range c.Nodes() {
		if vms := n.Env.HV.VMCount(); vms != 0 {
			t.Errorf("%s: %d microVMs leaked", n.Name, vms)
		}
		if topics := n.Env.Bus.TopicCount(); topics != 0 {
			t.Errorf("%s: %d topics leaked", n.Name, topics)
		}
	}
}
