package ndn

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestParseNameAndString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		uri  string
		want string
		n    int
	}{
		{"/", "/", 0},
		{"", "/", 0},
		{"/dapes/discovery", "/dapes/discovery", 2},
		{"dapes/discovery", "/dapes/discovery", 2},
		{"//a//b/", "/a/b", 2},
		{"/damaged-bridge-1533783192/bridge-picture/0", "/damaged-bridge-1533783192/bridge-picture/0", 3},
	}
	for _, tt := range tests {
		t.Run(tt.uri, func(t *testing.T) {
			n := ParseName(tt.uri)
			if n.String() != tt.want {
				t.Fatalf("String = %q, want %q", n.String(), tt.want)
			}
			if n.Len() != tt.n {
				t.Fatalf("Len = %d, want %d", n.Len(), tt.n)
			}
		})
	}
}

func TestNamePrefixAndAppend(t *testing.T) {
	t.Parallel()
	n := ParseName("/a/b/c")
	p := n.Prefix(2)
	if p.String() != "/a/b" {
		t.Fatalf("Prefix(2) = %s", p)
	}
	if got := n.Prefix(10); got.Len() != 3 {
		t.Fatalf("Prefix(10) = %s", got)
	}
	if got := n.Prefix(-1); got.Len() != 0 {
		t.Fatalf("Prefix(-1) = %s", got)
	}
	a := n.Append("d")
	if a.String() != "/a/b/c/d" || n.Len() != 3 {
		t.Fatalf("Append mutated receiver or failed: %s / %s", a, n)
	}
	s := n.AppendSeq(42)
	if s.String() != "/a/b/c/42" {
		t.Fatalf("AppendSeq = %s", s)
	}
	seq, err := s.Seq()
	if err != nil || seq != 42 {
		t.Fatalf("Seq = %d, %v", seq, err)
	}
	if _, err := n.Seq(); err == nil {
		t.Fatal("Seq on non-numeric tail should error")
	}
	if _, err := (Name{}).Seq(); err == nil {
		t.Fatal("Seq on empty name should error")
	}
}

func TestNamePrefixOfEqualCompare(t *testing.T) {
	t.Parallel()
	a := ParseName("/a/b")
	b := ParseName("/a/b/c")
	if !a.IsPrefixOf(b) || b.IsPrefixOf(a) {
		t.Fatal("prefix relation wrong")
	}
	if !a.IsPrefixOf(a) {
		t.Fatal("name should be prefix of itself")
	}
	if !a.Equal(ParseName("/a/b")) || a.Equal(b) {
		t.Fatal("equality wrong")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("compare ordering wrong")
	}
	if ParseName("/a/c").Compare(b) != 1 {
		t.Fatal("component comparison wrong")
	}
}

func TestNameKeyInjective(t *testing.T) {
	t.Parallel()
	key := func(n Name) string { return string(n.AppendKey(nil)) }
	// URI forms that coincide across component boundaries keep distinct keys.
	aliased := []Name{{"a/b"}, {"a", "b"}, {"a", "", "b"}, {"/a", "b"}, {"a/", "b"}, {}, {""}}
	for i, a := range aliased {
		for j, b := range aliased {
			if (key(a) == key(b)) != (i == j) {
				t.Fatalf("key(%q) == key(%q) is %v", []Component(a), []Component(b), i != j)
			}
		}
	}
	// Property: keys are equal exactly when the names are.
	f := func(a, b []string) bool {
		na, nb := make(Name, len(a)), make(Name, len(b))
		for i, c := range a {
			na[i] = Component(c)
		}
		for i, c := range b {
			nb[i] = Component(c)
		}
		return (key(na) == key(nb)) == na.Equal(nb) && key(na) == key(na.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// AppendKey appends: an existing prefix of dst survives.
	if got := string(ParseName("/x").AppendKey([]byte("pre"))); got != "pre\x01x" {
		t.Fatalf("AppendKey onto a prefix = %q", got)
	}
}

func TestNameKeyLookupDoesNotAllocate(t *testing.T) {
	n := ParseName("/damaged-bridge-1533783192/bridge-picture/0")
	m := map[string]int{string(n.AppendKey(nil)): 1}
	buf := make([]byte, 0, 64)
	var got int
	allocs := testing.AllocsPerRun(100, func() {
		buf = n.AppendKey(buf[:0])
		got = m[string(buf)]
	})
	if allocs != 0 || got != 1 {
		t.Fatalf("keyed lookup: %v allocs, value %d; want 0 allocs, value 1", allocs, got)
	}
}

func TestNameStringAllocatesOnce(t *testing.T) {
	n := ParseName("/damaged-bridge-1533783192/bridge-picture/0")
	var s string
	if allocs := testing.AllocsPerRun(100, func() { s = n.String() }); allocs != 1 {
		t.Fatalf("Name.String: %v allocs, want exactly 1", allocs)
	}
	if s != "/damaged-bridge-1533783192/bridge-picture/0" {
		t.Fatalf("String = %q", s)
	}
}

func TestAppendURIKeyMatchesParseName(t *testing.T) {
	t.Parallel()
	check := func(uri string) bool {
		want := ParseName(uri).AppendKey([]byte("pre"))
		return string(AppendURIKey([]byte("pre"), []byte(uri))) == string(want)
	}
	for _, uri := range []string{"", "/", "//", "a", "/a", "a/", "/a/b", "//a//b/", "/a/b/c/", "/\x00/\xff"} {
		if !check(uri) {
			t.Fatalf("AppendURIKey(%q) != ParseName(%q).AppendKey", uri, uri)
		}
	}
	// Property over URIs dense in slashes, so empty components, doubled
	// and trailing separators all occur.
	f := func(raw []byte) bool {
		for i := range raw {
			if raw[i]%4 == 0 {
				raw[i] = '/'
			}
		}
		return check(string(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNameAllocatesTwice pins the decoder's cost: one Name slice and
// one string shared by every component, whatever the component count.
func TestDecodeNameAllocatesTwice(t *testing.T) {
	n := ParseName("/dapes/bitmap/0badc0de/adv/17/42")
	enc := encodeName(nil, n)
	value := enc[2:] // past the one-byte Name type and length
	var got Name
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = decodeName(value); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("decodeName: %v allocs, want 2", allocs)
	}
	if !got.Equal(n) {
		t.Fatalf("decodeName = %s, want %s", got, n)
	}
	// Non-generic components are skipped, in the count and in the slicing.
	mixed := appendTLV(nil, tlvGenericNameComponent, []byte("a"))
	mixed = appendTLV(mixed, 0x99, []byte("skip"))
	mixed = appendTLV(mixed, tlvGenericNameComponent, []byte("bc"))
	if got, err := decodeName(mixed); err != nil || !got.Equal(Name{"a", "bc"}) {
		t.Fatalf("decodeName(mixed) = %q, %v", []Component(got), err)
	}
	if got, err := decodeName(nil); err != nil || got != nil {
		t.Fatalf("decodeName(empty) = %q, %v", []Component(got), err)
	}
}

func TestVarNumRoundTrip(t *testing.T) {
	t.Parallel()
	vals := []uint64{0, 1, 252, 253, 254, 65535, 65536, 1 << 31, 1 << 40}
	for _, v := range vals {
		b := appendVarNum(nil, v)
		got, n, err := readVarNum(b)
		if err != nil || got != v || n != len(b) {
			t.Fatalf("roundtrip %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
	if _, _, err := readVarNum(nil); err != ErrTruncated {
		t.Fatalf("empty readVarNum err = %v", err)
	}
	if _, _, err := readVarNum([]byte{253, 0}); err != ErrTruncated {
		t.Fatalf("truncated 3-byte form err = %v", err)
	}
}

func TestInterestRoundTrip(t *testing.T) {
	t.Parallel()
	in := &Interest{
		Name:        ParseName("/dapes/discovery"),
		CanBePrefix: true,
		MustBeFresh: true,
		Nonce:       0xDEADBEEF,
		Lifetime:    4 * time.Second,
		HopLimit:    3,
		AppParams:   []byte{1, 2, 3, 4},
	}
	wire := in.Encode()
	out, err := DecodeInterest(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Name.Equal(in.Name) || out.Nonce != in.Nonce ||
		out.Lifetime != in.Lifetime || out.HopLimit != in.HopLimit ||
		!out.CanBePrefix || !out.MustBeFresh ||
		!bytes.Equal(out.AppParams, in.AppParams) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
}

func TestInterestMinimalRoundTrip(t *testing.T) {
	t.Parallel()
	in := &Interest{Name: ParseName("/x")}
	out, err := DecodeInterest(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Name.Equal(in.Name) || out.CanBePrefix || len(out.AppParams) != 0 {
		t.Fatalf("minimal roundtrip mismatch: %+v", out)
	}
}

func TestDataRoundTripWithDigest(t *testing.T) {
	t.Parallel()
	d := &Data{
		Name:      ParseName("/damaged-bridge-1533783192/bridge-picture/0"),
		Type:      ContentTypeBlob,
		Freshness: 10 * time.Second,
		Content:   []byte("jpeg bytes"),
	}
	d.SignDigest()
	wire := d.Encode()
	out, err := DecodeData(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Name.Equal(d.Name) || !bytes.Equal(out.Content, d.Content) ||
		out.Freshness != d.Freshness || out.SigInfo.Type != SigTypeDigestSha256 {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	if !out.VerifyDigest() {
		t.Fatal("digest verification failed after roundtrip")
	}
	out.Content[0] ^= 0xFF
	if out.VerifyDigest() {
		t.Fatal("digest verified after tampering")
	}
}

func TestDataDigestStableAndNameBound(t *testing.T) {
	t.Parallel()
	d1 := &Data{Name: ParseName("/a/0"), Content: []byte("x")}
	d2 := &Data{Name: ParseName("/a/0"), Content: []byte("x")}
	d3 := &Data{Name: ParseName("/a/1"), Content: []byte("x")}
	if d1.Digest() != d2.Digest() {
		t.Fatal("identical packets produced different digests")
	}
	if d1.Digest() == d3.Digest() {
		t.Fatal("digest does not cover the name")
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	if _, err := DecodeInterest(nil); err == nil {
		t.Fatal("nil interest decoded")
	}
	if _, err := DecodeData([]byte{0x99, 0x00}); err == nil {
		t.Fatal("wrong outer type decoded as data")
	}
	// Interest outer type on DecodeData.
	in := (&Interest{Name: ParseName("/x")}).Encode()
	if _, err := DecodeData(in); err == nil {
		t.Fatal("interest decoded as data")
	}
	// Truncated packet.
	d := &Data{Name: ParseName("/x"), Content: []byte("abc")}
	d.SignDigest()
	wire := d.Encode()
	if _, err := DecodeData(wire[:len(wire)-3]); err == nil {
		t.Fatal("truncated data decoded")
	}
}

func TestInterestNameRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(parts []string, nonce uint32) bool {
		n := Name{}
		for _, p := range parts {
			if p == "" {
				continue
			}
			// Name components must not contain '/', which ParseName would
			// split; raw components are arbitrary bytes otherwise.
			n = n.Append(Component(p))
		}
		in := &Interest{Name: n, Nonce: nonce}
		out, err := DecodeInterest(in.Encode())
		return err == nil && out.Name.Equal(n) && out.Nonce == nonce
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDataContentRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(content []byte) bool {
		d := &Data{Name: ParseName("/p/0"), Content: content}
		d.SignDigest()
		out, err := DecodeData(d.Encode())
		if err != nil || !out.VerifyDigest() {
			return false
		}
		if len(content) == 0 {
			return len(out.Content) == 0
		}
		return bytes.Equal(out.Content, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
