package nfd

import (
	"math/rand"
	"testing"
	"time"
)

// nonceReference is the map the table replaced in core.Peer and
// multihop.PureForwarder, with their exact duplicate check and sweep.
type nonceReference map[uint32]time.Duration

func (r nonceReference) duplicate(nonce uint32, now time.Duration) bool {
	if at, seen := r[nonce]; seen && now-at < 2*time.Second {
		return true
	}
	r[nonce] = now
	return false
}

func (r nonceReference) sweep(now time.Duration) {
	for nonce, at := range r {
		if now-at > 4*time.Second {
			delete(r, nonce)
		}
	}
}

// get returns the time nonce was last recorded.
func (t *NonceTable) get(nonce uint32) (time.Duration, bool) {
	if t.n == 0 {
		return 0, false
	}
	i, ok := t.find(nonce)
	return t.slots[i].at(), ok
}

// collidingNonces returns n distinct nonces whose home is slot home in a
// table of the given size, so they form a single probe run.
func collidingNonces(n, size, home int) []uint32 {
	t := &NonceTable{}
	for len(t.slots) < size {
		t.grow()
	}
	var out []uint32
	for x := uint32(0); len(out) < n; x++ {
		if t.home(x) == home {
			out = append(out, x)
		}
	}
	return out
}

// TestNonceTableMatchesMapReference runs random sequences of duplicate checks,
// records, sweeps and resets against the table and the map it replaced:
// every duplicate verdict, every lookup, Len, and the entries that survive
// each sweep must agree. The key pools force long collision runs (keys
// sharing a home slot, wrapping around the array's end) and growth from
// empty through several doublings.
func TestNonceTableMatchesMapReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool []uint32
		switch seed % 4 {
		case 0: // few keys: heavy reuse
			for i := 0; i < 8; i++ {
				pool = append(pool, rng.Uint32())
			}
		case 1: // one probe run in the first table, at the array's end
			pool = collidingNonces(40, nonceMinSlots, nonceMinSlots-1)
		case 2: // colliding runs in a table grown to 256 slots
			pool = append(collidingNonces(30, 256, 7), collidingNonces(30, 256, 255)...)
		default: // many keys: growth
			for i := 0; i < 3000; i++ {
				pool = append(pool, rng.Uint32())
			}
		}
		var tab NonceTable
		ref := nonceReference{}
		now := time.Duration(0)
		for op := 0; op < 6000; op++ {
			now += time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
			nonce := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(100); {
			case r < 60:
				if got, want := tab.Duplicate(nonce, now), ref.duplicate(nonce, now); got != want {
					t.Fatalf("seed %d op %d: Duplicate(%#x, %v) = %v, map says %v", seed, op, nonce, now, got, want)
				}
			case r < 85:
				tab.Record(nonce, now)
				ref[nonce] = now
			case r < 97:
				// Sweeps may look back or jump ahead of the last record.
				at := now + time.Duration(rng.Int63n(int64(6*time.Second))) - 3*time.Second
				if at < 0 {
					at = 0
				}
				tab.Sweep(at)
				ref.sweep(at)
				for n, want := range ref {
					if got, ok := tab.get(n); !ok || got != want {
						t.Fatalf("seed %d op %d: after Sweep(%v), %#x = (%v, %v), map holds %v", seed, op, at, n, got, ok, want)
					}
				}
			case r < 98:
				tab.Reset()
				clear(ref)
			default:
				// A lookup of a key that may be absent.
				got, ok := tab.get(nonce)
				want, wantOK := ref[nonce]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("seed %d op %d: get(%#x) = (%v, %v), map says (%v, %v)", seed, op, nonce, got, ok, want, wantOK)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, map len = %d", seed, op, tab.Len(), len(ref))
			}
		}
	}
}

// TestNonceTableResetEmpties pins Reset: nothing recorded before it is a
// duplicate afterwards, and Len is zero.
func TestNonceTableResetEmpties(t *testing.T) {
	t.Parallel()
	var tab NonceTable
	for n := uint32(0); n < 100; n++ {
		tab.Record(n, time.Second)
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	for n := uint32(0); n < 100; n++ {
		if tab.Duplicate(n, time.Second) {
			t.Fatalf("nonce %d recorded before Reset is still a duplicate", n)
		}
	}
}

// TestNonceTableSteadyStateDoesNotAllocate pins the per-Interest and per-sweep cost:
// once the table has grown to its working size, checks, records and sweeps
// allocate nothing. (Serial: testing.AllocsPerRun counts every
// goroutine's allocations.)
func TestNonceTableSteadyStateDoesNotAllocate(t *testing.T) {
	var tab NonceTable
	now := time.Duration(0)
	next := uint32(0)
	step := func() {
		for i := 0; i < 50; i++ {
			now += 10 * time.Millisecond
			tab.Duplicate(next*0x9E3779B9, now)
			next++
		}
		tab.Sweep(now)
	}
	for i := 0; i < 20; i++ {
		step() // grow to the working size: 400 live entries at most
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("steady-state checks and sweeps allocated %v times per run", allocs)
	}
}
