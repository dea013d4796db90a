package memo

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

type addr [sha256.Size]byte

func key(i int) addr { return sha256.Sum256([]byte(fmt.Sprint(i))) }

func byte0(a addr) byte { return a[0] }

func TestBoundNeverExceeded(t *testing.T) {
	for _, capacity := range []int{1, 7, 64, 100, 256, 4096} {
		for _, sharded := range []bool{false, true} {
			var shardOf func(addr) byte
			if sharded {
				shardOf = byte0
			}
			c := New[addr, int](capacity, shardOf)
			for i := 0; i < 3*capacity+50; i++ {
				c.Put(key(i), i)
				if n := c.Len(); n > capacity {
					t.Fatalf("cap %d sharded=%v: %d entries after %d puts", capacity, sharded, n, i+1)
				}
			}
			st := c.Stats()
			if st.Evictions == 0 || st.Entries != c.Len() {
				t.Fatalf("cap %d sharded=%v: stats %+v, Len %d", capacity, sharded, st, c.Len())
			}
			if !sharded && st.Entries != capacity {
				t.Fatalf("cap %d: a full unsharded cache holds %d entries", capacity, st.Entries)
			}
		}
	}
}

func TestShardCapacitiesSumToCapacity(t *testing.T) {
	for _, capacity := range []int{1, 63, 64, 100, 129, 256, 4096, 64 * 4096} {
		c := New[addr, int](capacity, byte0)
		total := 0
		for i := range c.shards {
			total += c.shards[i].max
		}
		if total != capacity || len(c.shards) > 1<<maxShardBits {
			t.Fatalf("cap %d: %d shards holding %d in total", capacity, len(c.shards), total)
		}
	}
}

func TestGetProtectsFromEviction(t *testing.T) {
	c := New[int, string](3, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c")
	if _, ok := c.Get(1); !ok { // 1 becomes most recent; 2 is now the LRU
		t.Fatal("entry 1 missing")
	}
	c.Put(4, "d")
	if _, ok := c.Get(2); ok {
		t.Fatal("the least recently used entry survived the eviction")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %d evicted instead of the least recently used", k)
		}
	}
}

func TestRangeIsRecencyOrdered(t *testing.T) {
	c := New[int, int](4, nil)
	for i := 1; i <= 4; i++ {
		c.Put(i, i)
	}
	c.Get(2)
	c.Put(3, 30)
	var got []int
	c.Range(func(k, _ int) bool { got = append(got, k); return true })
	if fmt.Sprint(got) != "[3 2 4 1]" {
		t.Fatalf("Range order %v, want [3 2 4 1]", got)
	}
	hits := c.Stats().Hits
	n := 0
	c.Range(func(int, int) bool { n++; return n < 2 })
	if n != 2 || c.Stats().Hits != hits {
		t.Fatalf("Range visited %d entries after stop, hits %d -> %d", n, hits, c.Stats().Hits)
	}
}

func TestOverwriteDoesNotEvict(t *testing.T) {
	c := New[int, int](2, nil)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(1, 10)
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 2 {
		t.Fatalf("overwrite evicted: %+v", st)
	}
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("overwrite lost the value: %v %v", v, ok)
	}
	if v, ok := c.Get(2); !ok || v != 2 {
		t.Fatalf("overwrite disturbed a neighbour: %v %v", v, ok)
	}
}

func TestResetKeepsCounters(t *testing.T) {
	c := New[addr, int](64, byte0)
	for i := 0; i < 100; i++ {
		c.Put(key(i), i)
	}
	c.Get(key(99))
	c.Get(key(-1))
	before := c.Stats()
	c.Reset()
	after := c.Stats()
	if after.Entries != 0 || c.Len() != 0 {
		t.Fatalf("Reset left %d entries", after.Entries)
	}
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Fatalf("Reset changed counters: %+v -> %+v", before, after)
	}
	c.Put(key(1), 1)
	if v, ok := c.Get(key(1)); !ok || v != 1 {
		t.Fatal("cache unusable after Reset")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	const capacity = 128
	c := New[addr, int](capacity, byte0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*7919 + i) % 400
				if v, ok := c.Get(key(k)); ok && v != k {
					t.Errorf("key %d holds %d", k, v)
					return
				}
				c.Put(key(k), k)
				if i%500 == 0 {
					c.Stats()
					c.Range(func(addr, int) bool { return c.Len() <= capacity })
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > capacity || st.Hits+st.Misses != 8*2000 {
		t.Fatalf("stats after concurrent use: %+v", st)
	}
}

func TestNonPositiveCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int, int](0, nil)
}
