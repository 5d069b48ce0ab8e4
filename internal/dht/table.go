package dht

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/env"
	"repro/internal/proto"
)

// Table is a Kademlia routing table: one bucket per distance bit, each
// holding up to k contacts ordered least- to most-recently seen. The
// table itself never evicts a live contact — when a bucket is full,
// Update surfaces the least-recently-seen entry so the owning Node can
// liveness-ping it and decide (Kademlia's "old contacts stay unless
// proven dead" rule, which biases the table toward long-lived peers).
type Table struct {
	selfID  env.NodeID
	self    proto.DHTKey
	k       int
	buckets [KeyBits][]contact // index 0 = closest half-space; front = oldest
	// occupied marks the non-empty buckets, so Closest skips empty ones
	// without looking at them.
	occupied bucketSet
	size     int
}

// contact is one routing-table entry with its key held inline.
type contact struct {
	id  env.NodeID
	key proto.DHTKey
}

// NewTable creates a table for the given node with bucket capacity k.
func NewTable(self env.NodeID, k int) *Table {
	return &Table{
		selfID: self,
		self:   NodeKey(self),
		k:      k,
	}
}

// SelfKey returns the owner's key-space ID.
func (t *Table) SelfKey() proto.DHTKey { return t.self }

// Len returns the number of contacts held.
func (t *Table) Len() int { return t.size }

// find locates node: its bucket index, its position in that bucket (-1
// when absent) and its key. i is -1 for the owner itself.
func (t *Table) find(node env.NodeID) (i, j int, key proto.DHTKey) {
	key = NodeKey(node)
	i = BucketIndex(t.self, key)
	if i < 0 {
		return -1, -1, key
	}
	for j, c := range t.buckets[i] {
		if c.id == node {
			return i, j, key
		}
	}
	return i, -1, key
}

// Contains reports whether the node is in the table.
func (t *Table) Contains(node env.NodeID) bool {
	_, j, _ := t.find(node)
	return j >= 0
}

// Update records fresh evidence that node is alive. A known contact
// moves to most-recently-seen; an unknown contact is inserted when its
// bucket has room. When the bucket is full the unknown contact is NOT
// inserted: Update returns the least-recently-seen occupant and
// full=true, and the caller arbitrates by pinging it (Remove on
// timeout, Update on ack).
func (t *Table) Update(node env.NodeID) (evict env.NodeID, full bool) {
	if node == t.selfID || node == env.NoNode {
		return env.NoNode, false
	}
	i, j, key := t.find(node)
	if i < 0 {
		return env.NoNode, false
	}
	b := t.buckets[i]
	if j >= 0 {
		c := b[j]
		copy(b[j:], b[j+1:])
		b[len(b)-1] = c
		return env.NoNode, false
	}
	if len(b) < t.k {
		t.buckets[i] = append(b, contact{id: node, key: key})
		t.occupied.add(i)
		t.size++
		return env.NoNode, false
	}
	return b[0].id, true
}

// Remove drops a contact (liveness ping timed out, RPC failed).
func (t *Table) Remove(node env.NodeID) {
	i, j, _ := t.find(node)
	if j < 0 {
		return
	}
	b := t.buckets[i]
	copy(b[j:], b[j+1:])
	t.buckets[i] = b[:len(b)-1]
	if len(b) == 1 {
		t.occupied.remove(i)
	}
	t.size--
}

// dist is an XOR distance split into big-endian words, so comparing two
// distances costs at most three integer compares.
type dist struct {
	hi, mid uint64
	lo      uint32
}

// xorDist returns the XOR distance between a and b.
func xorDist(a, b *proto.DHTKey) dist {
	return dist{
		hi:  binary.BigEndian.Uint64(a[0:8]) ^ binary.BigEndian.Uint64(b[0:8]),
		mid: binary.BigEndian.Uint64(a[8:16]) ^ binary.BigEndian.Uint64(b[8:16]),
		lo:  binary.BigEndian.Uint32(a[16:20]) ^ binary.BigEndian.Uint32(b[16:20]),
	}
}

// less orders distances as unsigned integers.
func (d dist) less(e dist) bool {
	if d.hi != e.hi {
		return d.hi < e.hi
	}
	if d.mid != e.mid {
		return d.mid < e.mid
	}
	return d.lo < e.lo
}

// bucketSet is a set of bucket indices: bit b of word b/64 is bucket b.
type bucketSet [(KeyBits + 63) / 64]uint64

func (s *bucketSet) add(b int)    { s[b>>6] |= 1 << (b & 63) }
func (s *bucketSet) remove(b int) { s[b>>6] &^= 1 << (b & 63) }

// bucketBits returns the set of bit positions where d is 1: bit b of
// the distance from self to a target says on which side of bucket b's
// half-space the target lies.
func (d dist) bucketBits() bucketSet {
	return bucketSet{uint64(d.lo) | d.mid<<32, d.mid>>32 | d.hi<<32, d.hi >> 32}
}

// ranked is one contact with its distance to a target. Ordering is by
// distance, then NodeID (equal distances mean equal keys, which cannot
// occur between distinct nodes but keeps the order total).
type ranked struct {
	d  dist
	id env.NodeID
}

func (r ranked) before(s ranked) bool {
	if r.d != s.d {
		return r.d.less(s.d)
	}
	return r.id < s.id
}

// Closest returns up to n contacts ordered by XOR distance to target,
// NodeID breaking exact ties.
//
// It walks the buckets in distance order instead of sorting the table.
// Let t be the distance from self to target. A contact c in bucket b
// has c^self in [2^b, 2^(b+1)), so its distance to target, c^target =
// (c^self)^t, agrees with t above bit b and differs from it at bit b:
// every bucket covers its own aligned interval of distances, and no
// two overlap. Where bit b of t is 1 the interval lies below every
// bucket under b; where it is 0, above them. So the buckets whose bit
// is set come first, from the highest down (the target's own bucket
// leads), and then the buckets whose bit is clear, from the lowest up.
// Each bucket is strictly farther than the previous one, so the walk
// stops at the first bucket boundary where n contacts are held.
func (t *Table) Closest(target proto.DHTKey, n int) []env.NodeID {
	if n > t.size {
		n = t.size
	}
	if n <= 0 {
		return []env.NodeID{}
	}
	var buf [DefaultK]ranked // on the stack: the common n fits
	top := buf[:0]
	if n > len(buf) {
		top = make([]ranked, 0, n)
	}
	toward := xorDist(&t.self, &target).bucketBits()
	for w := len(toward) - 1; w >= 0; w-- {
		for x := toward[w] & t.occupied[w]; x != 0 && len(top) < n; {
			p := 63 - bits.LeadingZeros64(x)
			top = rankInto(top, t.buckets[w<<6+p], &target, n)
			x &^= 1 << p
		}
	}
	for w := range toward {
		for x := ^toward[w] & t.occupied[w]; x != 0 && len(top) < n; x &= x - 1 {
			top = rankInto(top, t.buckets[w<<6+bits.TrailingZeros64(x)], &target, n)
		}
	}
	out := make([]env.NodeID, len(top))
	for x, r := range top {
		out[x] = r.id
	}
	return out
}

// rankInto merges bucket's contacts into top, kept sorted and at most
// n long, computing each contact's distance once.
func rankInto(top []ranked, bucket []contact, target *proto.DHTKey, n int) []ranked {
	for c := range bucket {
		r := ranked{d: xorDist(&bucket[c].key, target), id: bucket[c].id}
		at := len(top)
		if at == n {
			if !r.before(top[at-1]) {
				continue
			}
			at--
		} else {
			top = top[:at+1]
		}
		for at > 0 && r.before(top[at-1]) {
			top[at] = top[at-1]
			at--
		}
		top[at] = r
	}
	return top
}

// BucketSizes returns the occupancy of every non-empty bucket as
// (index, size) pairs in index order — the /dht diagnostics payload.
func (t *Table) BucketSizes() [][2]int {
	var out [][2]int
	for i := range t.buckets {
		if n := len(t.buckets[i]); n > 0 {
			out = append(out, [2]int{i, n})
		}
	}
	return out
}
