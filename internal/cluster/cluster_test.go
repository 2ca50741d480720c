package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/workloads"
)

func fireworksCluster(t *testing.T, n int, policy Policy, cfg platform.EnvConfig) *Cluster {
	t.Helper()
	c := New(n, policy, cfg, func(env *platform.Env) platform.Platform {
		return core.New(env, core.Options{})
	})
	w := workloads.NetLatency(runtime.LangNode)
	if err := c.Install(w.Function); err != nil {
		t.Fatal(err)
	}
	return c
}

func invokeName() string { return workloads.NetLatency(runtime.LangNode).Name }

func TestInstallEverywhere(t *testing.T) {
	c := fireworksCluster(t, 3, LeastInflight, platform.EnvConfig{})
	for _, n := range c.Nodes() {
		if !n.Env.Snaps.Has(invokeName()) {
			t.Errorf("%s missing snapshot", n.Name)
		}
	}
}

// TestPlacementTakesTurns places sequential requests, so no node ever
// has one in flight: the policy's rotating offset alone spreads them.
func TestPlacementTakesTurns(t *testing.T) {
	c := fireworksCluster(t, 4, LeastInflight, platform.EnvConfig{})
	params := platform.MustParams(nil)
	for i := 0; i < 40; i++ {
		if _, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range c.Stats() {
		if s.Invocations != 10 {
			t.Errorf("%s served %d, want 10", s.Name, s.Invocations)
		}
	}
	if c.TotalInvocations() != 40 {
		t.Fatalf("total = %d", c.TotalInvocations())
	}
}

func TestLeastMemoryAvoidsLoadedNode(t *testing.T) {
	c := fireworksCluster(t, 3, LeastMemory, platform.EnvConfig{})
	// Preload node 0 with a big private allocation.
	heavy := c.Nodes()[0]
	heavy.Env.Mem.NewSpace("ballast").AllocPrivate("anon", 1<<20) // 4 GiB in pages
	params := platform.MustParams(nil)
	for i := 0; i < 12; i++ {
		_, node, err := c.Invoke(invokeName(), params, platform.InvokeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if node == heavy {
			t.Fatalf("invocation %d placed on the loaded node", i)
		}
	}
}

func TestSwappingNodesAreSkipped(t *testing.T) {
	// Tiny hosts: a single ballast allocation pushes a node past its
	// swap threshold.
	cfg := platform.EnvConfig{MemBytes: 8 << 30}
	c := fireworksCluster(t, 2, LeastInflight, cfg)
	drowned := c.Nodes()[1]
	drowned.Env.Mem.NewSpace("ballast").AllocPrivate("anon", (6<<30)/4096)
	if !drowned.Env.Mem.Swapping() {
		t.Fatal("ballast did not push node into swapping")
	}
	params := platform.MustParams(nil)
	for i := 0; i < 6; i++ {
		_, node, err := c.Invoke(invokeName(), params, platform.InvokeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if node == drowned {
			t.Fatal("placed work on a swapping node")
		}
	}
	// Drown the other node too: the cluster reports itself full.
	c.Nodes()[0].Env.Mem.NewSpace("ballast").AllocPrivate("anon", (6<<30)/4096)
	_, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{})
	if !errors.Is(err, ErrClusterFull) {
		t.Fatalf("err = %v, want ErrClusterFull", err)
	}
}

// invokeConcurrently fires 60 parallel invocations and requires every
// one to succeed, the exact total to be counted, and no node to have
// been starved — the regression surface for the placement race where
// every racing pick read the same stale counts.
func invokeConcurrently(t *testing.T, c *Cluster) {
	t.Helper()
	params := platform.MustParams(nil)
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.TotalInvocations() != 60 {
		t.Fatalf("total = %d, want 60", c.TotalInvocations())
	}
	for _, s := range c.Stats() {
		if s.Invocations == 0 {
			t.Errorf("%s served nothing", s.Name)
		}
	}
}

func TestLeastInflightUnderConcurrency(t *testing.T) {
	c := fireworksCluster(t, 3, LeastInflight, platform.EnvConfig{})
	invokeConcurrently(t, c)
}

func TestLeastMemoryUnderConcurrency(t *testing.T) {
	c := fireworksCluster(t, 3, LeastMemory, platform.EnvConfig{})
	invokeConcurrently(t, c)
}

func TestClusterSharedMetrics(t *testing.T) {
	c := fireworksCluster(t, 2, LeastInflight, platform.EnvConfig{})
	params := platform.MustParams(nil)
	for i := 0; i < 4; i++ {
		if _, _, err := c.Invoke(invokeName(), params, platform.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Metrics().Snapshot()
	counters := make(map[string]int64)
	for _, cs := range snap.Counters {
		counters[cs.Name] = cs.Value
	}
	// Placements and per-node invocations come from the cluster layer.
	if got := counters[`cluster_placements_total{policy="least-inflight"}`]; got != 4 {
		t.Errorf("placements = %d, want 4", got)
	}
	for _, node := range []string{"node-00", "node-01"} {
		if got := counters[`cluster_node_invocations_total{node="`+node+`"}`]; got != 2 {
			t.Errorf("%s invocations = %d, want 2", node, got)
		}
	}
	// Host-level metrics aggregate fleet-wide through the shared
	// registry: both nodes' installs and restores land in one place.
	if got := counters[`vmm_snapshot_restores_total`]; got != 4 {
		t.Errorf("restores = %d, want 4", got)
	}
	if counters[`fireworks_install_total`] != 2 {
		t.Errorf("installs = %d, want 2", counters[`fireworks_install_total`])
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name == "vmm_snapshot_restore_duration" && h.Count == 4 {
			found = true
		}
	}
	if !found {
		t.Error("missing fleet-wide restore latency histogram with 4 samples")
	}
}

func TestRejectionCounted(t *testing.T) {
	cfg := platform.EnvConfig{MemBytes: 8 << 30}
	c := fireworksCluster(t, 1, LeastInflight, cfg)
	c.Nodes()[0].Env.Mem.NewSpace("ballast").AllocPrivate("anon", (6<<30)/4096)
	_, _, err := c.Invoke(invokeName(), platform.MustParams(nil), platform.InvokeOptions{})
	if !errors.Is(err, ErrClusterFull) {
		t.Fatalf("err = %v, want ErrClusterFull", err)
	}
	for _, cs := range c.Metrics().Snapshot().Counters {
		if cs.Name == "cluster_rejections_total" {
			if cs.Value != 1 {
				t.Fatalf("rejections = %d, want 1", cs.Value)
			}
			return
		}
	}
	t.Fatal("cluster_rejections_total not in snapshot")
}

func TestRemoveEverywhere(t *testing.T) {
	c := fireworksCluster(t, 2, LeastInflight, platform.EnvConfig{})
	if err := c.Remove(invokeName()); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if n.Env.Snaps.Has(invokeName()) {
			t.Errorf("%s still has the snapshot", n.Name)
		}
	}
	if _, _, err := c.Invoke(invokeName(), platform.MustParams(nil), platform.InvokeOptions{}); err == nil {
		t.Fatal("invoke after remove succeeded")
	}
}

func TestPolicyNames(t *testing.T) {
	if LeastMemory.String() != "least-memory" || LeastInflight.String() != "least-inflight" {
		t.Fatal("policy names")
	}
}

// TestRedeployReleasesRegions installs a function on three nodes,
// redeploys changed code n times with invocations in between, and
// removes it. Each redeploy replaces every node's post-JIT image, so
// once the function is gone what each node's host still tracks must be
// the same however many versions came and went.
func TestRedeployReleasesRegions(t *testing.T) {
	quiescent := func(n int) []int {
		c := fireworksCluster(t, 3, LeastInflight, platform.EnvConfig{})
		fn := workloads.NetLatency(runtime.LangNode).Function
		params := platform.MustParams(nil)
		for v := 0; v <= n; v++ {
			if v > 0 {
				fn.Source = fmt.Sprintf("%s\n// version %d\n", workloads.NetLatency(runtime.LangNode).Function.Source, v)
				if err := c.Install(fn); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				if _, _, err := c.Invoke(fn.Name, params, platform.InvokeOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Remove(fn.Name); err != nil {
			t.Fatal(err)
		}
		var regions []int
		for _, node := range c.Nodes() {
			rep := node.Env.Mem.Report()
			if rep.UsedBytes != 0 {
				t.Fatalf("redeploys=%d: %s holds %d bytes at quiescence", n, node.Name, rep.UsedBytes)
			}
			regions = append(regions, len(rep.Regions))
		}
		return regions
	}
	once, many := quiescent(1), quiescent(5)
	if !slices.Equal(once, many) {
		t.Fatalf("lineage rows per node at quiescence: %v after 1 redeploy, %v after 5", once, many)
	}
}
