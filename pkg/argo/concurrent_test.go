package argo_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"argo/pkg/argo"
)

// TestConcurrentCompile compiles every built-in use case on every
// built-in platform from concurrent goroutines (run with -race). The
// pipeline entry points must be reentrant: compilations share the
// use-case values and platform library but no mutable state, and every
// concurrent result must equal the sequential reference bound.
func TestConcurrentCompile(t *testing.T) {
	type pair struct {
		uc   *argo.UseCase
		plat *argo.PlatformDesc
	}
	var pairs []pair
	ref := make(map[string]int64)
	for _, uc := range argo.UseCases() {
		for _, name := range argo.PlatformNames() {
			plat := argo.Platform(name)
			art, err := argo.CompileUseCase(uc, plat)
			if err != nil {
				t.Fatalf("reference compile %s/%s: %v", uc.Name, name, err)
			}
			ref[uc.Name+"/"+plat.Name] = art.Bound()
			pairs = append(pairs, pair{uc, plat})
		}
	}

	const workersPerPair = 2
	var wg sync.WaitGroup
	errc := make(chan error, len(pairs)*workersPerPair)
	for _, p := range pairs {
		for w := 0; w < workersPerPair; w++ {
			wg.Add(1)
			go func(p pair) {
				defer wg.Done()
				art, err := argo.CompileUseCase(p.uc, p.plat)
				if err != nil {
					errc <- fmt.Errorf("%s/%s: %v", p.uc.Name, p.plat.Name, err)
					return
				}
				if got, want := art.Bound(), ref[p.uc.Name+"/"+p.plat.Name]; got != want {
					errc <- fmt.Errorf("%s/%s: concurrent bound %d != sequential %d",
						p.uc.Name, p.plat.Name, got, want)
				}
			}(p)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentSimulate runs the simulator over one shared *Artifacts
// from many goroutines: simulation must only read the compiled program,
// and every run must stay within the static bound. The runs start cold,
// so they race to publish the program's trace cache; each report must
// equal the same seed simulated on a separately compiled program.
func TestConcurrentSimulate(t *testing.T) {
	uc := argo.UseCaseByName("weaa")
	art, err := argo.CompileUseCase(uc, argo.Platform("xentium4"))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	reps := make([]*argo.SimReport, goroutines)
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seed := int64(g + 1)
			rep, err := argo.Simulate(art, uc.Inputs(seed))
			if err != nil {
				errc <- fmt.Errorf("seed %d: %v", seed, err)
				return
			}
			if err := argo.CheckBounds(art, rep); err != nil {
				errc <- fmt.Errorf("seed %d: %v", seed, err)
			}
			reps[g] = rep
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	ref, err := argo.CompileUseCase(uc, argo.Platform("xentium4"))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Parallel == art.Parallel {
		t.Fatal("reference compile shares the simulated program")
	}
	for g, rep := range reps {
		if rep == nil {
			continue
		}
		want, err := argo.Simulate(ref, uc.Inputs(int64(g+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("seed %d: concurrent cold-start report differs from the reference\n got: %+v\nwant: %+v", g+1, rep, want)
		}
	}
}

// TestCompileContextCancelled verifies the context-aware entry points
// stop on an already-cancelled context.
func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	uc := argo.UseCaseByName("polka")
	if _, err := argo.CompileUseCaseContext(ctx, uc, argo.Platform("xentium4")); !errors.Is(err, context.Canceled) {
		t.Errorf("CompileUseCaseContext: got %v, want context.Canceled", err)
	}
	if _, err := argo.OptimizeUseCaseContext(ctx, uc, argo.Platform("xentium2")); !errors.Is(err, context.Canceled) {
		t.Errorf("OptimizeUseCaseContext: got %v, want context.Canceled", err)
	}
	art, err := argo.CompileUseCase(uc, argo.Platform("xentium4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := argo.SimulateContext(ctx, art, uc.Inputs(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateContext: got %v, want context.Canceled", err)
	}
}
