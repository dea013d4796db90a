package sim

import (
	"context"

	"argo/internal/fault"
	"argo/internal/par"
)

// Interp selects the execution engine for the simulator's functional
// phase (phase 0). Both engines are observably identical — results,
// traces, meter charges, and errors are bit-for-bit the same (enforced
// by the differential tests and FuzzVMExec) — so the choice only affects
// speed. Run, RunContext and RunFaulty always use the VM; the tree
// walker is reachable only through the *Interp variants, for the
// differential tests and the benchmark ledger.
type Interp int

const (
	// InterpVM executes compiled register bytecode (internal/ir/vm),
	// falling back to the tree walker if compilation fails.
	InterpVM Interp = iota
	// InterpTree executes the ir.Exec tree walker — the differential
	// oracle.
	InterpTree
)

// RunInterp is Run with an explicit execution engine.
func RunInterp(p *par.Program, args [][]float64, interp Interp) (*Report, error) {
	return run(context.Background(), p, args, nil, interp)
}

// RunFaultyInterp is RunFaulty with an explicit execution engine.
func RunFaultyInterp(ctx context.Context, p *par.Program, args [][]float64, spec fault.Spec, interp Interp) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return run(ctx, p, args, fault.New(spec), interp)
}
