package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetTestClearCount(t *testing.T) {
	t.Parallel()
	b := New(130) // crosses word boundaries
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		b.Set(i)
	}
	for _, i := range idx {
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(idx))
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != len(idx)-1 {
		t.Fatal("clear failed")
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	t.Parallel()
	b := New(10)
	b.Set(-1)
	b.Set(10)
	b.Clear(100)
	if b.Count() != 0 {
		t.Fatal("out-of-range Set modified bitmap")
	}
	if b.Test(-1) || b.Test(10) {
		t.Fatal("out-of-range Test returned true")
	}
}

func TestSetAllFullAndMissing(t *testing.T) {
	t.Parallel()
	b := New(70)
	if b.Full() {
		t.Fatal("empty bitmap reported Full")
	}
	b.SetAll()
	if !b.Full() || b.Count() != 70 {
		t.Fatalf("SetAll: count=%d", b.Count())
	}
	if len(b.Missing()) != 0 {
		t.Fatal("full bitmap has missing bits")
	}
	b.Clear(5)
	b.Clear(69)
	miss := b.Missing()
	if len(miss) != 2 || miss[0] != 5 || miss[1] != 69 {
		t.Fatalf("Missing = %v", miss)
	}
	ones := b.Ones()
	if len(ones) != 68 {
		t.Fatalf("Ones len = %d", len(ones))
	}
}

func TestZeroLengthBitmap(t *testing.T) {
	t.Parallel()
	b := New(0)
	b.SetAll()
	if b.Count() != 0 || !b.Full() {
		t.Fatal("zero-length bitmap misbehaves")
	}
	rt, err := Decode(b.Encode())
	if err != nil || rt.Len() != 0 {
		t.Fatalf("zero-length roundtrip: %v", err)
	}
	if n := New(-5); n.Len() != 0 {
		t.Fatal("negative length not clamped")
	}
}

func TestOrAndNotMissingFrom(t *testing.T) {
	t.Parallel()
	a := New(10)
	b := New(10)
	a.Set(1)
	a.Set(2)
	a.Set(3)
	b.Set(3)
	b.Set(4)

	missing, err := a.MissingFrom(b)
	if err != nil || missing != 2 { // bits 1,2 set in a, clear in b
		t.Fatalf("MissingFrom = %d, %v", missing, err)
	}

	u := a.Clone()
	if err := u.Or(b); err != nil {
		t.Fatal(err)
	}
	if u.Count() != 4 {
		t.Fatalf("Or count = %d", u.Count())
	}

	d := a.Clone()
	if err := d.AndNot(b); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 2 || !d.Test(1) || !d.Test(2) {
		t.Fatalf("AndNot wrong: %v", d.Ones())
	}

	short := New(5)
	if err := a.Or(short); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	if _, err := a.MissingFrom(short); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	if err := a.AndNot(short); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	t.Parallel()
	a := New(8)
	a.Set(1)
	c := a.Clone()
	c.Set(2)
	if a.Test(2) {
		t.Fatal("clone shares storage")
	}
	if !c.Equal(c.Clone()) || a.Equal(c) {
		t.Fatal("equality wrong")
	}
	if a.Equal(New(9)) {
		t.Fatal("different lengths compare equal")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	b := New(100)
	for _, i := range []int{0, 7, 8, 9, 50, 99} {
		b.Set(i)
	}
	rt, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Equal(b) {
		t.Fatalf("roundtrip mismatch: %v vs %v", rt.Ones(), b.Ones())
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := Decode([]byte{0, 0}); err == nil {
		t.Fatal("short header decoded")
	}
	// Header claims 100 bits but payload is empty.
	if _, err := Decode([]byte{0, 0, 0, 100}); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	t.Parallel()
	f := func(setBits []uint16, size uint16) bool {
		n := int(size%2000) + 1
		b := New(n)
		for _, s := range setBits {
			b.Set(int(s) % n)
		}
		rt, err := Decode(b.Encode())
		return err == nil && rt.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMissingFromIdentityProperty(t *testing.T) {
	t.Parallel()
	// a.MissingFrom(a) == 0 and a.MissingFrom(zero) == a.Count().
	f := func(setBits []uint16) bool {
		b := New(512)
		for _, s := range setBits {
			b.Set(int(s) % 512)
		}
		self, err1 := b.MissingFrom(b)
		zero, err2 := b.MissingFrom(New(512))
		return err1 == nil && err2 == nil && self == 0 && zero == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRarity(t *testing.T) {
	t.Parallel()
	r := NewRarity(4)
	// Three peers: packet 0 held by all, packet 3 held by none.
	mk := func(bits ...int) *Bitmap {
		b := New(4)
		for _, i := range bits {
			b.Set(i)
		}
		return b
	}
	for _, b := range []*Bitmap{mk(0, 1), mk(0, 2), mk(0, 1, 2)} {
		if err := r.Observe(b); err != nil {
			t.Fatal(err)
		}
	}
	if r.Seen() != 3 {
		t.Fatalf("Seen = %d", r.Seen())
	}
	want := []int{0, 1, 1, 3}
	for i, w := range want {
		if r.Of(i) != w {
			t.Fatalf("Of(%d) = %d, want %d", i, r.Of(i), w)
		}
	}
	if r.Of(-1) != 0 || r.Of(4) != 0 {
		t.Fatal("out-of-range rarity nonzero")
	}
	if err := r.Observe(New(5)); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	if err := r.Forget(New(5)); err != ErrSizeMismatch {
		t.Fatalf("Forget size mismatch not detected: %v", err)
	}
	// Forgetting takes an observation back exactly.
	if err := r.Forget(mk(0, 2)); err != nil {
		t.Fatal(err)
	}
	for i, w := range []int{0, 0, 1, 2} {
		if r.Of(i) != w {
			t.Fatalf("after Forget: Of(%d) = %d, want %d", i, r.Of(i), w)
		}
	}
	if r.Seen() != 2 {
		t.Fatalf("after Forget: Seen = %d", r.Seen())
	}
}

func TestRarityRunningCountsProperty(t *testing.T) {
	t.Parallel()
	// Sizes straddle word boundaries so the last word's unused bits are
	// exercised.
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		r := NewRarity(n)
		var held []*Bitmap
		for step := 0; step < 200; step++ {
			if len(held) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(held))
				if err := r.Forget(held[i]); err != nil {
					t.Fatal(err)
				}
				held = append(held[:i], held[i+1:]...)
			} else {
				b := New(n)
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						b.Set(i)
					}
				}
				if err := r.Observe(b); err != nil {
					t.Fatal(err)
				}
				held = append(held, b)
			}
			if r.Seen() != len(held) {
				t.Fatalf("n=%d step %d: Seen = %d, want %d", n, step, r.Seen(), len(held))
			}
			for i := 0; i < n; i++ {
				want := 0
				for _, b := range held {
					if !b.Test(i) {
						want++
					}
				}
				if r.Of(i) != want {
					t.Fatalf("n=%d step %d: Of(%d) = %d, recount %d", n, step, i, r.Of(i), want)
				}
			}
		}
	}
}

// refEncode and refDecode are the bit-at-a-time codec the word-wise
// Encode and Load replaced, kept as their reference.
func refEncode(b *Bitmap) []byte {
	out := []byte{byte(b.n >> 24), byte(b.n >> 16), byte(b.n >> 8), byte(b.n)}
	for i := 0; i < (b.n+7)/8; i++ {
		var by byte
		for bit := 0; bit < 8; bit++ {
			if idx := i*8 + bit; idx < b.n && b.Test(idx) {
				by |= 1 << uint(bit)
			}
		}
		out = append(out, by)
	}
	return out
}

func refDecode(buf []byte) *Bitmap {
	n := int(buf[0])<<24 | int(buf[1])<<16 | int(buf[2])<<8 | int(buf[3])
	b := New(n)
	for i := 0; i < n; i++ {
		if buf[4+i/8]&(1<<(uint(i)%8)) != 0 {
			b.Set(i)
		}
	}
	return b
}

// TestWordwiseCodecMatchesBitwiseReference holds Encode and Load to the
// bit-at-a-time reference for every length 0–200, on random contents and
// on payloads whose bits past n (and trailing bytes) are all set. Load
// reuses one destination across lengths, growing and shrinking it.
func TestWordwiseCodecMatchesBitwiseReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	dst := New(0)
	for n := 0; n <= 200; n++ {
		for trial := 0; trial < 4; trial++ {
			b := New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					b.Set(i)
				}
			}
			enc := b.Encode()
			if want := refEncode(b); string(enc) != string(want) {
				t.Fatalf("n=%d: Encode = %x, reference %x", n, enc, want)
			}
			if app := b.AppendEncode([]byte("pre")); string(app) != "pre"+string(enc) {
				t.Fatalf("n=%d: AppendEncode = %x", n, app)
			}
			// Stray bits: every bit past n in the last byte, plus a trailing
			// byte of garbage, must be ignored.
			stray := append([]byte(nil), enc...)
			if rem := n % 8; rem != 0 {
				stray[len(stray)-1] |= 0xFF << uint(rem)
			}
			stray = append(stray, 0xFF)
			for _, buf := range [][]byte{enc, stray} {
				if err := dst.Load(buf); err != nil {
					t.Fatalf("n=%d: Load: %v", n, err)
				}
				want := refDecode(buf)
				if !dst.Equal(want) || dst.Count() != want.Count() {
					t.Fatalf("n=%d: Load = %v, reference %v", n, dst.Ones(), want.Ones())
				}
				if string(dst.Encode()) != string(enc) {
					t.Fatalf("n=%d: Load kept stray bits: %x vs %x", n, dst.Encode(), enc)
				}
			}
		}
	}
}

func TestLoadErrorLeavesBitmapUnchanged(t *testing.T) {
	t.Parallel()
	b := New(20)
	b.Set(3)
	for _, buf := range [][]byte{nil, {0, 0}, {0, 0, 0, 100}, {0xFF, 0xFF, 0xFF, 0xFF, 1}} {
		if err := b.Load(buf); err == nil {
			t.Fatalf("Load(%x) succeeded", buf)
		}
		if b.Len() != 20 || !b.Test(3) || b.Count() != 1 {
			t.Fatalf("failed Load(%x) changed the bitmap", buf)
		}
	}
}

func TestCopyFromAndClearAll(t *testing.T) {
	t.Parallel()
	src := New(130)
	src.Set(0)
	src.Set(129)
	dst := New(300)
	dst.SetAll()
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom shrink: %v", dst.Ones())
	}
	dst.Set(5)
	if src.Test(5) {
		t.Fatal("CopyFrom shares storage")
	}
	small := New(3)
	small.CopyFrom(src)
	if !small.Equal(src) {
		t.Fatalf("CopyFrom grow: %v", small.Ones())
	}
	small.ClearAll()
	if small.Count() != 0 || small.Len() != 130 {
		t.Fatalf("ClearAll: len %d count %d", small.Len(), small.Count())
	}
}

// TestInPlaceCodecDoesNotAllocate pins the receive-path contract: loading
// into a bitmap with the capacity, and copying between bitmaps, allocate
// nothing.
func TestInPlaceCodecDoesNotAllocate(t *testing.T) {
	b := New(1000)
	b.Set(7)
	enc := b.Encode()
	dst, cp := New(1000), New(1000)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := dst.Load(enc); err != nil {
			t.Fatal(err)
		}
		cp.CopyFrom(dst)
	}); allocs != 0 {
		t.Errorf("Load+CopyFrom cost %.1f allocs, want 0", allocs)
	}
	if !cp.Equal(b) {
		t.Fatal("in-place copy mismatch")
	}
}
