package vm_test

import (
	"testing"

	"argo/internal/ir"
	"argo/internal/ir/vm"
)

// macSrc exercises the four multiply-accumulate shapes — Add/Sub with
// the Mul on either side — plus matrix operands (loads inside the Mul
// operands) and values where an FMA contraction would change the result
// bits.
const macSrc = `
function r = f(x, y, M)
  r = 0
  acc = 0
  for i = 1:8
    acc = acc + M(i) * x
    acc = acc - M(i) * y
    acc = x * y + acc
    acc = x * acc - y
  end
  r = acc + 0.1 * x
  r = r - y * 0.3
endfunction`

func macProg(t *testing.T) *ir.Program {
	t.Helper()
	return lower(t, macSrc, "f", ir.ScalarArg(), ir.ScalarArg(), ir.MatrixArg(8, 1))
}

func macInputs() [][]float64 {
	m := make([]float64, 8)
	for i := range m {
		// Values chosen so x*y rounds: an FMA (single rounding) would
		// produce different bits than mul-then-add.
		m[i] = 1.0/3.0 + float64(i)*0.7
	}
	return [][]float64{{0.1}, {1.0 / 3.0}, m}
}

// TestMulAccumulateDifferential pins bit-identity on multiply-accumulate
// statements: the VM matches the tree walker exactly (results, meter
// sequence, errors), so no FMA contraction happens in either engine.
func TestMulAccumulateDifferential(t *testing.T) {
	assertSame(t, macProg(t), macInputs())
}

// TestSharedCacheBound pins the shared code cache's bound (256
// programs) and the eviction counter: stores beyond the cap evict
// rather than grow.
func TestSharedCacheBound(t *testing.T) {
	vm.SharedReset()
	t.Cleanup(vm.SharedReset)

	cp, err := vm.Compile(macProg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		var k vm.CacheKey
		k[0] = byte(i * 4) // spread across shards
		k[1], k[2] = byte(i), byte(i>>8)
		vm.SharedStore(k, cp)
	}
	if n := vm.SharedLen(); n > 256 {
		t.Errorf("shared cache holds %d entries, bound is 256", n)
	}
	var k vm.CacheKey
	k[0], k[1], k[2] = byte(1023*4%256), byte(1023%256), byte(1023>>8)
	if _, ok := vm.SharedLookup(k); !ok {
		t.Error("most recent store missing from shared cache")
	}
}
