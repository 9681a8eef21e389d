// Package bitmap implements the compact data-advertisement encoding of
// Section IV-D: one bit per packet of a file collection, 1 when the peer
// holds the packet. Bitmaps travel inside bitmap Interests and bitmap Data
// packets and feed the rarity computations of the RPF strategies.
package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrSizeMismatch is returned by binary operations on bitmaps of different
// lengths.
var ErrSizeMismatch = errors.New("bitmap: size mismatch")

// Bitmap is a fixed-size bitset over packet indices [0, Len).
type Bitmap struct {
	n     int
	words []uint64
}

// New returns an all-zero bitmap over n bits.
func New(n int) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set marks bit i. Out-of-range indices are ignored.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear unmarks bit i. Out-of-range indices are ignored.
func (b *Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Test reports whether bit i is set. Out-of-range indices are false.
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Full reports whether every bit is set.
func (b *Bitmap) Full() bool { return b.Count() == b.n }

// SetAll marks every bit.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the unused high bits of the last word.
func (b *Bitmap) trim() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
	if b.n == 0 && len(b.words) > 0 {
		b.words[0] = 0
	}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := New(b.n)
	copy(out.words, b.words)
	return out
}

// CopyFrom makes b a copy of src, length included, reusing b's storage
// when it is large enough.
func (b *Bitmap) CopyFrom(src *Bitmap) {
	b.resize(src.n)
	copy(b.words, src.words)
}

// ClearAll unmarks every bit.
func (b *Bitmap) ClearAll() {
	clear(b.words)
}

// resize sets the length to n bits, reusing the word storage when it has
// the capacity. The words' contents are left for the caller to overwrite.
func (b *Bitmap) resize(n int) {
	b.n = n
	w := (n + 63) / 64
	if cap(b.words) >= w {
		b.words = b.words[:w]
	} else {
		b.words = make([]uint64, w)
	}
}

// Equal reports whether two bitmaps have identical length and bits.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// Or sets b to b ∪ other.
func (b *Bitmap) Or(other *Bitmap) error {
	if b.n != other.n {
		return ErrSizeMismatch
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
	return nil
}

// AndNot sets b to b \ other (bits set in b but not in other).
func (b *Bitmap) AndNot(other *Bitmap) error {
	if b.n != other.n {
		return ErrSizeMismatch
	}
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
	return nil
}

// MissingFrom returns the number of bits set in b that are clear in other:
// packets b holds that other is missing. This drives the advertisement
// prioritization of Section IV-F.
func (b *Bitmap) MissingFrom(other *Bitmap) (int, error) {
	if b.n != other.n {
		return 0, ErrSizeMismatch
	}
	total := 0
	for i, w := range b.words {
		total += bits.OnesCount64(w &^ other.words[i])
	}
	return total, nil
}

// Missing returns the indices of clear bits, in ascending order.
func (b *Bitmap) Missing() []int {
	out := make([]int, 0, b.n-b.Count())
	for i := 0; i < b.n; i++ {
		if !b.Test(i) {
			out = append(out, i)
		}
	}
	return out
}

// Ones returns the indices of set bits, in ascending order.
func (b *Bitmap) Ones() []int {
	out := make([]int, 0, b.Count())
	for i := 0; i < b.n; i++ {
		if b.Test(i) {
			out = append(out, i)
		}
	}
	return out
}

// Encode serializes the bitmap: a 4-byte big-endian bit length followed by
// the packed bit bytes (LSB-first within each byte).
func (b *Bitmap) Encode() []byte {
	return b.AppendEncode(make([]byte, 0, 4+8*len(b.words)))
}

// AppendEncode appends the Encode form of the bitmap to dst. LSB-first bytes
// are the little-endian layout of each word, so the bits are written a
// word at a time and the last word is cut to the bytes n needs.
func (b *Bitmap) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(b.n))
	end := len(dst) + (b.n+7)/8
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst[:end]
}

// Decode parses a bitmap produced by Encode.
func Decode(buf []byte) (*Bitmap, error) {
	b := &Bitmap{}
	if err := b.Load(buf); err != nil {
		return nil, err
	}
	return b, nil
}

// Load parses a bitmap produced by Encode into b, reusing b's storage when
// it is large enough; bits past the decoded length are dropped. On error b
// is unchanged.
func (b *Bitmap) Load(buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("bitmap: short header (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint32(buf))
	nbytes := (n + 7) / 8
	if len(buf) < 4+nbytes {
		return fmt.Errorf("bitmap: need %d payload bytes, have %d", nbytes, len(buf)-4)
	}
	b.resize(n)
	data := buf[4 : 4+nbytes]
	for i := range b.words {
		if len(data) >= 8 {
			b.words[i] = binary.LittleEndian.Uint64(data)
			data = data[8:]
			continue
		}
		var w uint64
		for j, c := range data {
			w |= uint64(c) << (8 * uint(j))
		}
		b.words[i] = w
	}
	b.trim()
	return nil
}

// Rarity accumulates how many of a set of peer bitmaps are missing each
// packet; higher counts mean rarer packets (Section IV-E). The counts are
// running: Observe adds a bitmap and Forget takes back one observed
// earlier, so a holder of a changing bitmap set keeps them current without
// recounting.
type Rarity struct {
	n      int
	missby []int // missby[i] = number of observed bitmaps with bit i clear
	seen   int
}

// NewRarity returns a rarity accumulator over n packets.
func NewRarity(n int) *Rarity {
	return &Rarity{n: n, missby: make([]int, n)}
}

// Observe folds one peer bitmap into the rarity counts.
func (r *Rarity) Observe(b *Bitmap) error {
	return r.add(b, 1)
}

// Forget removes a bitmap folded in by an earlier Observe. The bitmap must
// hold the bits it was observed with.
func (r *Rarity) Forget(b *Bitmap) error {
	return r.add(b, -1)
}

// add adds delta to the count of every packet b is missing.
func (r *Rarity) add(b *Bitmap, delta int) error {
	if b.Len() != r.n {
		return ErrSizeMismatch
	}
	for wi, w := range b.words {
		missing := ^w
		if rem := r.n - wi*64; rem < 64 {
			missing &= 1<<uint(rem) - 1
		}
		for missing != 0 {
			r.missby[wi*64+bits.TrailingZeros64(missing)] += delta
			missing &= missing - 1
		}
	}
	r.seen += delta
	return nil
}

// Seen returns the number of observed (and not forgotten) bitmaps.
func (r *Rarity) Seen() int { return r.seen }

// Of returns the rarity of packet i: the count of observed bitmaps missing
// it. Out-of-range indices return 0.
func (r *Rarity) Of(i int) int {
	if i < 0 || i >= r.n {
		return 0
	}
	return r.missby[i]
}
