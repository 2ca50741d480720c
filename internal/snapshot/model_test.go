package snapshot

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/vclock"
	"repro/internal/vmm"
)

// storeModel drives a Store, a Remote and the host its images live on
// with random operations and keeps what the store must hold: which
// image each name serves, the pins on it, and which images each store
// and restored VM keeps alive.
type storeModel struct {
	t      *testing.T
	hv     *vmm.Hypervisor
	s      *Store
	remote *Remote
	reg    *metrics.Registry
	budget uint64

	pins    map[string]int           // per resident name
	uploads map[string]*vmm.Snapshot // the remote's objects
	images  []*modelImage
	vms     []*modelVM
	invals  int64 // invalidations the store must have counted
}

type modelImage struct {
	snap     *vmm.Snapshot
	everHeld bool // a store took a hold: from then on its holds decide
}

type modelVM struct {
	vm  *vmm.MicroVM
	img *modelImage
}

// The model's namespace: three functions over two base runtimes, each
// function redeployable in three code versions. Chunks are 4 MiB, so a
// base image is 4 chunks and a function's private heap 1 to 3.
var (
	modelFns   = []string{"f0", "f1", "f2"}
	modelLangs = []string{"node", "python"}
)

func modelBase(lang string) string { return "base/" + lang }

// image captures a fresh image: a base (kernel and runtime of lang) or
// a function's delta over it, whose heap class is keyed
// {function}_{code version}. A probe VM restored from it splits one
// page of every region, so each region shows in the host's report for
// exactly as long as the host tracks it.
func (m *storeModel) image(fn, lang string, version int) *modelImage {
	m.t.Helper()
	specs := []vmm.RegionSpec{
		{Kind: mem.KindKernel, Bytes: 8 << 20, Content: "base:kernel"},
		{Kind: mem.KindRuntime, Bytes: 8 << 20, Content: "base:runtime:" + lang},
	}
	key := "base_" + lang
	if fn != "" {
		key = fmt.Sprintf("%s_v%d", fn, version)
		specs = append([]vmm.RegionSpec{{Kind: mem.KindHeap, Bytes: uint64(version%3+1) << 22, Content: "fn:" + key}}, specs...)
	}
	clock := vclock.New()
	v := m.hv.CreateVM(clock)
	if err := v.BootKernel(clock); err != nil {
		m.t.Fatal(err)
	}
	snap, err := m.hv.TakeSnapshot(v, specs, 1<<20, nil, clock)
	if err != nil {
		m.t.Fatal(err)
	}
	if err := v.Stop(); err != nil {
		m.t.Fatal(err)
	}
	snap.ContentKey = key
	if fn != "" {
		snap.BaseKey = modelBase(lang)
	}
	probe, err := m.hv.Restore(snap, vmm.RestoreOptions{}, clock)
	if err != nil {
		m.t.Fatal(err)
	}
	for _, spec := range specs {
		probe.DirtyKind(spec.Kind, mem.PageSize)
	}
	if err := probe.Stop(); err != nil {
		m.t.Fatal(err)
	}
	img := &modelImage{snap: snap}
	m.images = append(m.images, img)
	return img
}

// put stores an image under name and checks what the store must do:
// replacing an image with another content key counts one
// invalidation, and the name never serves the stale image again.
func (m *storeModel) put(name string, img *modelImage) {
	m.t.Helper()
	old := m.s.entries[name]
	err := m.s.Put(name, img.snap)
	switch {
	case errors.Is(err, ErrTooLarge):
		if m.s.entries[name] != old {
			m.t.Fatalf("put %s: a rejected image replaced the resident one", name)
		}
		return
	case err != nil && !errors.Is(err, ErrAllPinned):
		m.t.Fatalf("put %s: %v", name, err)
	}
	img.everHeld = true
	delete(m.pins, name) // the replaced entry's pins went with it
	if old != nil && old.snap.ContentKey != img.snap.ContentKey {
		m.invals++
	}
	e := m.s.entries[name]
	if err == nil && (e == nil || e.snap != img.snap) {
		m.t.Fatalf("put %s succeeded but the store serves %v", name, e)
	}
	if err != nil && e != nil {
		m.t.Fatalf("put %s failed (%v) but the name still serves %s", name, err, e.snap.ContentKey)
	}
}

// step applies one operation, chosen and parameterised by two bytes.
func (m *storeModel) step(op, arg byte) {
	m.t.Helper()
	name := modelFns[int(arg)%len(modelFns)]
	lang := modelLangs[int(arg>>2)%len(modelLangs)]
	before := map[string]*entry{}
	for n, e := range m.s.entries {
		before[n] = e
	}
	removed := ""
	switch op % 10 {
	case 0: // install a base image
		m.put(modelBase(lang), m.image("", lang, 0))
	case 1, 2: // install or redeploy a function's delta
		m.put(name, m.image(name, lang, int(arg>>3)))
	case 3:
		if m.s.Pin(name) == nil {
			m.pins[name]++
		}
	case 4:
		m.s.Unpin(name)
		if m.pins[name] > 0 {
			m.pins[name]--
		}
	case 5:
		_, _ = m.s.Get(name)
	case 6: // restore a VM from the image the name serves
		if e := m.s.entries[name]; e != nil {
			v, err := m.hv.Restore(e.snap, vmm.RestoreOptions{}, vclock.New())
			if err != nil {
				m.t.Fatal(err)
			}
			m.vms = append(m.vms, &modelVM{v, m.imageOf(e.snap)})
		}
	case 7: // stop the oldest running VM
		if len(m.vms) > 0 {
			if err := m.vms[0].vm.Stop(); err != nil {
				m.t.Fatal(err)
			}
			m.vms = m.vms[1:]
		}
	case 8: // remove the function, locally and remotely
		m.s.Remove(name)
		m.remote.Delete(name)
		delete(m.pins, name)
		delete(m.uploads, name)
		removed = name
	case 9: // upload the image the name serves to remote storage
		if e := m.s.entries[name]; e != nil {
			m.remote.Upload(name, e.snap, vclock.New())
			m.uploads[name] = e.snap
		}
	}
	for n := range before {
		if _, ok := m.s.entries[n]; ok || n == removed {
			continue
		}
		// Gone without a Remove: evicted, which a pin forbids, and so
		// does a delta over it that stayed resident throughout.
		if m.pins[n] > 0 {
			m.t.Fatalf("op %d: pinned %s was evicted", op%10, n)
		}
		for d, e := range m.s.entries {
			if e.snap.BaseKey == n && before[d] == e {
				m.t.Fatalf("op %d: base %s was evicted under resident %s", op%10, n, d)
			}
		}
	}
	m.check()
}

func (m *storeModel) imageOf(snap *vmm.Snapshot) *modelImage {
	for _, img := range m.images {
		if img.snap == snap {
			return img
		}
	}
	m.t.Fatalf("image %s is not the model's", snap.ID)
	return nil
}

// check compares the store and the host with the model.
func (m *storeModel) check() {
	m.t.Helper()
	refs := map[uint64]int{}
	var used uint64
	deps := map[string]int{}
	for name, e := range m.s.entries {
		for _, c := range e.snap.Manifest().Chunks() {
			if refs[c.ID] == 0 {
				used += c.Bytes
			}
			refs[c.ID]++
		}
		if e.pins != m.pins[name] {
			m.t.Fatalf("%s has %d pins, the model %d", name, e.pins, m.pins[name])
		}
		if e.snap.BaseKey != "" {
			deps[e.snap.BaseKey]++
		}
	}
	if got := m.s.UsedBytes(); got != used {
		m.t.Fatalf("UsedBytes = %d, the resident images' unique chunks hold %d", got, used)
	}
	if m.budget > 0 && used > m.budget {
		m.t.Fatalf("%d bytes resident over a %d budget", used, m.budget)
	}
	for id, pc := range m.s.pool {
		if pc.refs <= 0 || pc.refs != refs[id] {
			m.t.Fatalf("chunk %x has %d refs, the resident images %d", id, pc.refs, refs[id])
		}
	}
	if len(m.s.pool) != len(refs) {
		m.t.Fatalf("pool holds %d chunks, the resident images %d", len(m.s.pool), len(refs))
	}
	if !maps.Equal(m.s.baseDeps, deps) {
		m.t.Fatalf("base dependents %v, the resident deltas %v", m.s.baseDeps, deps)
	}
	if got := m.reg.Counter("snapshot_store_invalidations_total").Value(); got != m.invals {
		m.t.Fatalf("%d invalidations counted, %d content-key changes replaced an image", got, m.invals)
	}
	m.checkRegions()
}

// checkRegions holds every image to the snapshot's ownership rule: its
// regions live exactly while a store holds it or a VM maps it (or no
// store ever held it: such an image keeps them).
func (m *storeModel) checkRegions() {
	m.t.Helper()
	var live []string
	for _, l := range m.hv.Host.Report().Regions {
		live = append(live, l.Region)
	}
	for _, img := range m.images {
		want := !img.everHeld
		for _, e := range m.s.entries {
			want = want || e.snap == img.snap
		}
		for _, snap := range m.uploads {
			want = want || snap == img.snap
		}
		for _, v := range m.vms {
			want = want || v.img == img
		}
		got := slices.ContainsFunc(live, func(r string) bool { return strings.Contains(r, "-"+img.snap.ID+"#") })
		if got != want {
			m.t.Fatalf("image %s (%s): regions live = %v, want %v", img.snap.ID, img.snap.ContentKey, got, want)
		}
	}
}

// runStoreModel plays data as (op, arg) byte pairs against a store whose
// budget the first byte picks (unbounded, or 6 to 12 chunks), then
// tears everything down: every refcount must reach zero with no byte
// resident, and every image a store held must have let go of its
// regions.
func runStoreModel(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	m := &storeModel{
		t: t, hv: newHV(), s: NewStore(0), remote: NewRemote(), reg: metrics.NewRegistry(),
		pins: map[string]int{}, uploads: map[string]*vmm.Snapshot{},
	}
	if b := data[0] % 5; b > 0 {
		m.budget = uint64(4+2*b) * chunk.Size
		m.s = NewStore(m.budget)
	}
	m.s.Instrument(m.reg)
	for i := 1; i+1 < len(data); i += 2 {
		m.step(data[i], data[i+1])
	}
	for _, v := range m.vms {
		if err := v.vm.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	m.vms = nil
	for _, name := range m.s.Names() {
		m.s.Remove(name)
		m.remote.Delete(name)
		delete(m.uploads, name)
	}
	for name := range m.uploads {
		m.remote.Delete(name)
		delete(m.uploads, name)
	}
	m.pins = map[string]int{}
	m.check()
	if len(m.s.pool) != 0 || m.s.UsedBytes() != 0 {
		t.Fatalf("teardown left %d chunks, %d bytes", len(m.s.pool), m.s.UsedBytes())
	}
}

// FuzzStoreModel is the model-based test of Store over the chunk pool:
// random puts (base images and function deltas, with code-version
// redeploys), pins, unpins, gets, restores, VM stops, removals and
// remote uploads, checked after every operation against the model
// above. Its seeds run under go test; make fuzz-smoke explores from
// them and from testdata/fuzz/FuzzStoreModel.
func FuzzStoreModel(f *testing.F) {
	rng := vclock.NewRand(0x5eed)
	for i := 0; i < 24; i++ {
		seed := make([]byte, 1+2*(8+rng.Intn(40)))
		for j := range seed {
			seed[j] = byte(rng.Uint64())
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		runStoreModel(t, data)
	})
}
