package sim

import (
	"reflect"
	"testing"

	"argo/internal/adl"
	"argo/internal/ir"
	"argo/internal/par"
	"argo/internal/sched"
	"argo/internal/wcet"
)

// TestTraceCacheWarmRunsIdentical runs the same inputs through a warm
// program (trace cache populated by earlier seeds) and through per-seed
// fresh programs (every run meters cold), and requires bit-identical
// reports: the cache must be invisible in every observable output.
func TestTraceCacheWarmRunsIdentical(t *testing.T) {
	platform := adl.XentiumPlatform(3)
	spec := ir.ArgSpec{Rows: 8, Cols: 8}
	warm := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
	for seed := int64(0); seed < 5; seed++ {
		args := [][]float64{randImg(64, seed)}
		wantProg := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
		want, err := Run(wantProg, args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(warm, args)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: warm-cache report differs from cold report:\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}

// TestTraceCacheInvariance checks the gate itself: the straight-line
// pipeline caches every task, while the branchy kernel (data-dependent
// if) has variant tasks that are never published — and published traces
// equal freshly metered ones, also after later runs have re-metered the
// variant tasks into the pooled segment buffer the published traces were
// first metered into.
func TestTraceCacheInvariance(t *testing.T) {
	platform := adl.XentiumPlatform(3)
	spec := ir.ArgSpec{Rows: 8, Cols: 8}

	p := buildPipeline(t, pipelineSrc, platform, sched.ListOblivious, false, spec)
	c := cacheFor(p)
	for tid, inv := range c.invariant {
		if !inv {
			t.Errorf("pipeline task %d: want invariant trace", tid)
		}
	}
	// The pipeline's first run meters every task and publishes them all;
	// it also leaves the pooled segment buffer larger than the branchy
	// program's traces, so the branchy run below meters into it in place.
	if _, err := Run(p, [][]float64{randImg(64, 1)}); err != nil {
		t.Fatal(err)
	}
	pub := c.traces.Load()
	if pub == nil {
		t.Fatal("first complete run published no traces")
	}

	b := buildPipeline(t, branchySrc, platform, sched.ListOblivious, false, spec)
	cb := cacheFor(b)
	anyVariant := false
	for _, inv := range cb.invariant {
		if !inv {
			anyVariant = true
		}
	}
	if !anyVariant {
		t.Error("branchy program: want at least one variant task")
	}
	// Publication keeps exactly the invariant tasks' traces.
	if _, err := Run(b, [][]float64{randImg(64, 1)}); err != nil {
		t.Fatal(err)
	}
	bpub := cb.traces.Load()
	if bpub == nil {
		t.Fatal("branchy program: first complete run published no traces")
	}
	for tid, tr := range *bpub {
		if (tr != nil) != cb.invariant[tid] {
			t.Errorf("branchy task %d: published=%v, invariant=%v", tid, tr != nil, cb.invariant[tid])
		}
	}
	// Later runs re-meter the variant tasks into the pooled buffer; a
	// published trace that aliased it would now hold their segments.
	for seed := int64(2); seed < 6; seed++ {
		if _, err := Run(b, [][]float64{randImg(64, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	// Independently re-meter every task and compare each published trace
	// segment for segment.
	checkPublished(t, b, *bpub)
	checkPublished(t, p, *pub)

	// Counter sanity: a second warm run of the pipeline only hits.
	h0, m0 := TraceCacheCounters()
	if _, err := Run(p, [][]float64{randImg(64, 3)}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := TraceCacheCounters()
	if h1 <= h0 {
		t.Errorf("warm run recorded no trace cache hits (%d -> %d)", h0, h1)
	}
	if m1 != m0 {
		t.Errorf("warm run of fully-invariant program recorded misses (%d -> %d)", m0, m1)
	}
}

// checkPublished re-meters every task of p on a fresh tree walker and
// requires each published trace to equal its fresh metering.
func checkPublished(t *testing.T, p *par.Program, pub [][]segment) {
	t.Helper()
	ex := ir.NewExec(p.IR, nil)
	if err := ex.Init([][]float64{randImg(64, 7)}); err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Graph.Nodes {
		tm := &traceMeter{model: wcet.ModelFor(p.Platform, p.Schedule.Placements[n.ID].Core)}
		ex.SetMeter(tm)
		if err := ex.ExecBlock(n.Stmts); err != nil {
			t.Fatal(err)
		}
		fresh := tm.finish()
		if cached := pub[n.ID]; cached != nil && !reflect.DeepEqual(cached, fresh) {
			t.Errorf("task %d: cached trace differs from fresh metering\n cached: %v\n  fresh: %v", n.ID, cached, fresh)
		}
	}
}
