package dht

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/env"
	"repro/internal/proto"
)

// closestBySort is the full-sort Closest that the bucket walk replaced,
// kept as the oracle: every contact, ordered by XOR distance to target
// and then NodeID, cut to n.
func closestBySort(t *Table, target proto.DHTKey, n int) []env.NodeID {
	var cs []contact
	for i := range t.buckets {
		cs = append(cs, t.buckets[i]...)
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].key == cs[b].key {
			return cs[a].id < cs[b].id
		}
		return CloserTo(target, cs[a].key, cs[b].key)
	})
	if len(cs) > n {
		cs = cs[:n]
	}
	out := make([]env.NodeID, len(cs))
	for i, c := range cs {
		out[i] = c.id
	}
	return out
}

func checkClosest(t *testing.T, tb *Table, target proto.DHTKey, n int, what string) {
	t.Helper()
	got, want := tb.Closest(target, n), closestBySort(tb, target, n)
	if got == nil {
		t.Fatalf("%s: Closest(n=%d) returned nil", what, n)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Closest(n=%d) returned %d contacts, want %d", what, n, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Closest(n=%d)[%d] = %d, want %d (got %v, want %v)", what, n, i, got[i], want[i], got, want)
		}
	}
}

// forge inserts a contact with a chosen key, bypassing NodeKey, so a
// test can populate buckets that random node keys practically never
// reach (the ones close to self).
func forge(tb *Table, id env.NodeID, key proto.DHTKey) {
	i := BucketIndex(tb.self, key)
	tb.buckets[i] = append(tb.buckets[i], contact{id: id, key: key})
	tb.occupied.add(i)
	tb.size++
}

// TestClosestMatchesSortOracle checks the bucket walk against the full
// sort on random tables of 0–300 contacts, for n in {0, 1, K, > Len},
// with random targets, the self key, and contacts' own keys as targets.
// Half the tables also hold forged contacts spread over all 160
// buckets, and every table has lost a quarter of its contacts.
func TestClosestMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 1))
	for trial := 0; trial < 200; trial++ {
		k := []int{1, 2, 4, 16, 20}[r.IntN(5)]
		tb := NewTable(env.NodeID(r.IntN(1<<20)), k)
		want := r.IntN(301)
		for tries := 0; tb.Len() < want && tries < 20000; tries++ {
			tb.Update(env.NodeID(r.IntN(1 << 20)))
		}
		if trial%2 == 1 {
			for id := env.NodeID(1 << 21); id < 1<<21+40; id++ {
				key := tb.SelfKey()
				bit := r.IntN(KeyBits)
				key[len(key)-1-bit/8] ^= 1 << (bit % 8)
				for low := 0; low < bit; low++ { // random bits under the flipped one
					if r.IntN(2) == 0 {
						key[len(key)-1-low/8] ^= 1 << (low % 8)
					}
				}
				forge(tb, id, key)
			}
		}
		var all []env.NodeID
		for i := range tb.buckets {
			for _, c := range tb.buckets[i] {
				all = append(all, c.id)
			}
		}
		for _, x := range r.Perm(len(all))[:len(all)/4] {
			tb.Remove(all[x])
		}
		targets := []proto.DHTKey{tb.SelfKey(), expand(r.Uint64()), Key("obj", "x")}
		for i := range tb.buckets {
			if b := tb.buckets[i]; len(b) > 0 {
				targets = append(targets, b[r.IntN(len(b))].key)
			}
		}
		for _, target := range targets {
			for _, n := range []int{0, 1, k, tb.Len() + 3} {
				checkClosest(t, tb, target, n, "random table")
			}
		}
	}
}

// TestClosestBreaksKeyTiesByNodeID forges contacts that share a key (a
// collision NodeKey never produces) to pin the NodeID tie-break.
func TestClosestBreaksKeyTiesByNodeID(t *testing.T) {
	tb := NewTable(0, 8)
	for id := env.NodeID(1); tb.Len() < 12; id++ {
		tb.Update(id)
	}
	for i := range tb.buckets {
		if len(tb.buckets[i]) == 0 || len(tb.buckets[i]) == tb.k {
			continue
		}
		c := tb.buckets[i][0]
		// Same key under a larger and a smaller NodeID, in that order.
		tb.buckets[i] = append(tb.buckets[i], contact{id: c.id + 100000, key: c.key})
		tb.buckets[i] = append([]contact{{id: c.id - 100000, key: c.key}}, tb.buckets[i]...)
		tb.size += 2
		checkClosest(t, tb, c.key, 3, "tied keys")
		checkClosest(t, tb, tb.SelfKey(), tb.Len(), "tied keys")
		return
	}
	t.Fatal("no partly filled bucket to forge ties in")
}

// TestUpdateBumpDoesNotAllocate: refreshing a known contact moves it to
// most-recently-seen in place.
func TestUpdateBumpDoesNotAllocate(t *testing.T) {
	tb := NewTable(0, DefaultK)
	for id := env.NodeID(1); id <= 200; id++ {
		tb.Update(id)
	}
	known := tb.buckets[KeyBits-1][0].id
	if allocs := testing.AllocsPerRun(100, func() { tb.Update(known) }); allocs != 0 {
		t.Fatalf("Update of a known contact allocates %.1f times", allocs)
	}
	b := tb.buckets[KeyBits-1]
	if b[len(b)-1].id != known {
		t.Fatal("bumped contact is not most-recently-seen")
	}
}

// BenchmarkTableClosest measures one K=16 Closest query on a table
// holding 256 contacts.
func BenchmarkTableClosest(b *testing.B) {
	tb := NewTable(0, DefaultK)
	for id := env.NodeID(1); tb.Len() < 256; id++ {
		tb.Update(id)
	}
	r := rand.New(rand.NewPCG(1, 2))
	targets := make([]proto.DHTKey, 64)
	for i := range targets {
		targets[i] = expand(r.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Closest(targets[i%len(targets)], DefaultK)
	}
}
