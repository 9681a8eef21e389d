package nfd

import "time"

// This file is the duplicate-Interest table of DAPES peers (core.Peer) and
// pure forwarders (multihop.PureForwarder): each 32-bit Interest nonce a
// node sent or heard, mapped to the virtual time it was last recorded. An
// Interest whose nonce was recorded less than NonceWindow ago is a
// duplicate (a loop or a neighbor's rebroadcast) and is dropped; a
// periodic Sweep forgets nonces older than NonceMaxAge.
//
// The table is one flat open-addressing array with linear probing. Sweep
// removes entries in place by backward shifting, so it leaves no
// tombstones and never reallocates, and the table grows only with the
// number of live entries.

const (
	// NonceWindow is how long a recorded nonce marks a repeat as a
	// duplicate.
	NonceWindow = 2 * time.Second
	// NonceMaxAge is the age beyond which NonceTable.Sweep drops a nonce.
	NonceMaxAge = 4 * time.Second
)

// nonceMinSlots is the capacity of a table's first allocation.
const nonceMinSlots = 16

// nonceSlot is one table entry. stamp holds the recording time plus one,
// so the zero slot is empty and a fresh or cleared array needs no set-up;
// it is split into two 32-bit halves so a slot packs into 12 bytes.
type nonceSlot struct {
	nonce uint32
	stamp [2]uint32 // low, high
}

func newNonceSlot(nonce uint32, at time.Duration) nonceSlot {
	s := uint64(at + 1)
	return nonceSlot{nonce: nonce, stamp: [2]uint32{uint32(s), uint32(s >> 32)}}
}

func (s *nonceSlot) empty() bool { return s.stamp == [2]uint32{} }

// at returns the recording time of a non-empty slot.
func (s *nonceSlot) at() time.Duration {
	return time.Duration(uint64(s.stamp[1])<<32|uint64(s.stamp[0])) - 1
}

// NonceTable maps Interest nonces to the virtual time they were last
// recorded. Times must be non-negative (virtual time starts at 0). The
// zero value is an empty table ready for use. It is not safe for
// concurrent use.
type NonceTable struct {
	slots []nonceSlot // len is zero or a power of two
	shift uint        // 32 - log2(len(slots)): home keeps the hash's top bits
	n     int
}

// Len returns the number of recorded nonces.
func (t *NonceTable) Len() int { return t.n }

// home returns the slot a nonce's probe sequence starts at (Fibonacci
// hashing: the top bits of the nonce times 2^32/φ).
func (t *NonceTable) home(nonce uint32) int {
	return int((nonce * 0x9E3779B9) >> t.shift)
}

// find returns the slot holding nonce and true, or the empty slot where
// its probe sequence ends and false. The table must have a free slot.
func (t *NonceTable) find(nonce uint32) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(nonce); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.empty() {
			return i, false
		}
		if s.nonce == nonce {
			return i, true
		}
	}
}

// Duplicate reports whether nonce was recorded less than NonceWindow
// before now. If it was not, Duplicate records it at now.
func (t *NonceTable) Duplicate(nonce uint32, now time.Duration) bool {
	i := t.slotFor(nonce)
	if s := &t.slots[i]; !s.empty() && now-s.at() < NonceWindow {
		return true
	}
	t.slots[i] = newNonceSlot(nonce, now)
	return false
}

// Record records nonce at now, replacing any earlier time.
func (t *NonceTable) Record(nonce uint32, now time.Duration) {
	t.slots[t.slotFor(nonce)] = newNonceSlot(nonce, now)
}

// slotFor returns the slot holding nonce or, after making room, the empty
// slot a new entry for it goes in (counted as live from here on).
func (t *NonceTable) slotFor(nonce uint32) int {
	// Grow before probing, at a load factor of 3/4: linear probing slows
	// sharply beyond it.
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	i, ok := t.find(nonce)
	if !ok {
		t.n++
	}
	return i
}

// grow doubles the table and re-inserts every entry.
func (t *NonceTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size == 0 {
		size = nonceMinSlots
	}
	t.slots = make([]nonceSlot, size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if !s.empty() {
			i, _ := t.find(s.nonce)
			t.slots[i] = s
		}
	}
}

// Sweep drops every nonce recorded more than NonceMaxAge before now.
func (t *NonceTable) Sweep(now time.Duration) {
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; !s.empty() && now-s.at() > NonceMaxAge {
			// remove may shift a later entry of the probe run into i, so i
			// is examined again. Entries only move back toward the hole,
			// into slots the scan has not passed or (across the wrap) into
			// slots it already kept: none is skipped.
			t.remove(i)
			continue
		}
		i++
	}
}

// remove empties slot hole by backward-shift deletion: each later entry
// of the probe run that may legally sit in the hole moves back into it,
// so every remaining entry stays reachable from its home slot.
func (t *NonceTable) remove(hole int) {
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; !t.slots[j].empty(); j = (j + 1) & mask {
		h := t.home(t.slots[j].nonce)
		// The entry at j stays put when its home lies cyclically in
		// (hole, j]: moving it before its home would hide it.
		if (hole < j && hole < h && h <= j) || (hole > j && (hole < h || h <= j)) {
			continue
		}
		t.slots[hole] = t.slots[j]
		hole = j
	}
	t.slots[hole] = nonceSlot{}
	t.n--
}

// Reset empties the table, keeping its capacity.
func (t *NonceTable) Reset() {
	clear(t.slots)
	t.n = 0
}
