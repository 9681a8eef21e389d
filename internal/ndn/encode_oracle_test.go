package ndn

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// This file keeps the nested-append encoder that Interest.Encode,
// Data.Encode and the signed portion used before the one-buffer encoder:
// every nested TLV is built in a temporary slice of its own and then copied
// into its parent. It is the byte-equality oracle for the one-buffer
// encoder, which must produce exactly these bytes.

func refAppendTLV(b []byte, typ uint64, value []byte) []byte {
	b = appendVarNum(b, typ)
	b = appendVarNum(b, uint64(len(value)))
	return append(b, value...)
}

func refAppendNonNegTLV(b []byte, typ uint64, v uint64) []byte {
	var val []byte
	switch {
	case v <= 0xFF:
		val = []byte{byte(v)}
	case v <= 0xFFFF:
		val = binary.BigEndian.AppendUint16(nil, uint16(v))
	case v <= 0xFFFFFFFF:
		val = binary.BigEndian.AppendUint32(nil, uint32(v))
	default:
		val = binary.BigEndian.AppendUint64(nil, v)
	}
	return refAppendTLV(b, typ, val)
}

func refEncodeName(b []byte, n Name) []byte {
	var inner []byte
	for _, c := range n {
		inner = refAppendTLV(inner, tlvGenericNameComponent, []byte(c))
	}
	return refAppendTLV(b, tlvName, inner)
}

func refEncodeInterest(i *Interest) []byte {
	var inner []byte
	inner = refEncodeName(inner, i.Name)
	if i.CanBePrefix {
		inner = refAppendTLV(inner, tlvCanBePrefix, nil)
	}
	if i.MustBeFresh {
		inner = refAppendTLV(inner, tlvMustBeFresh, nil)
	}
	nonce := []byte{byte(i.Nonce >> 24), byte(i.Nonce >> 16), byte(i.Nonce >> 8), byte(i.Nonce)}
	inner = refAppendTLV(inner, tlvNonce, nonce)
	if i.Lifetime > 0 {
		inner = refAppendNonNegTLV(inner, tlvInterestLifetime, uint64(i.Lifetime/time.Millisecond))
	}
	if i.HopLimit > 0 {
		inner = refAppendTLV(inner, tlvHopLimit, []byte{i.HopLimit})
	}
	if len(i.AppParams) > 0 {
		inner = refAppendTLV(inner, tlvApplicationParameters, i.AppParams)
	}
	return refAppendTLV(nil, tlvInterest, inner)
}

func refSignedPortion(d *Data) []byte {
	var b []byte
	b = refEncodeName(b, d.Name)
	var meta []byte
	if d.Type != ContentTypeBlob {
		meta = refAppendNonNegTLV(meta, tlvContentType, d.Type)
	}
	if d.Freshness > 0 {
		meta = refAppendNonNegTLV(meta, tlvFreshnessPeriod, freshnessMs(d.Freshness))
	}
	b = refAppendTLV(b, tlvMetaInfo, meta)
	b = refAppendTLV(b, tlvContent, d.Content)
	var si []byte
	si = refAppendNonNegTLV(si, tlvSignatureType, d.SigInfo.Type)
	if len(d.SigInfo.KeyLocator) > 0 {
		var kl []byte
		kl = refEncodeName(kl, d.SigInfo.KeyLocator)
		si = refAppendTLV(si, tlvKeyLocator, kl)
	}
	return refAppendTLV(b, tlvSignatureInfo, si)
}

func refEncodeData(d *Data) []byte {
	inner := refSignedPortion(d)
	inner = refAppendTLV(inner, tlvSignatureValue, d.SigValue)
	return refAppendTLV(nil, tlvData, inner)
}

// checkAgainstOracle fails unless a freshly serialized copy of the packet
// (wire cache dropped) encodes to the oracle's bytes.
func checkAgainstOracle(tb testing.TB, it *Interest, d *Data) {
	tb.Helper()
	if it != nil {
		fresh := *it
		fresh.InvalidateWire()
		if got, want := fresh.Encode(), refEncodeInterest(&fresh); !bytes.Equal(got, want) {
			tb.Fatalf("Interest %+v:\none-buffer %x\noracle     %x", fresh, got, want)
		}
	}
	if d != nil {
		fresh := *d
		fresh.InvalidateWire()
		if got, want := fresh.Encode(), refEncodeData(&fresh); !bytes.Equal(got, want) {
			tb.Fatalf("Data %+v:\none-buffer %x\noracle     %x", fresh, got, want)
		}
		if got, want := fresh.signedPortion(), refSignedPortion(&fresh); !bytes.Equal(got, want) {
			tb.Fatalf("Data %+v signed portion:\none-buffer %x\noracle     %x", fresh, got, want)
		}
	}
}

// edSigner is an ndn.Signer over a raw Ed25519 key (internal/keys imports
// this package, so its Key cannot be used here).
type edSigner struct {
	priv ed25519.PrivateKey
	name Name
}

func (s edSigner) Sign(msg []byte) []byte { return ed25519.Sign(s.priv, msg) }
func (s edSigner) KeyName() Name          { return s.name }

// Values on both sides of every 1/2/4/8-octet non-negative integer
// boundary and every 1/3/5/9-octet VAR-NUMBER length boundary.
var (
	nonNegEdges = []uint64{0, 1, 0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFFFFFF, 0x100000000, uint64(math.MaxInt64 / int64(time.Millisecond))}
	lenEdges    = []int{0, 1, 252, 253, 0xFFFF, 0x10000}
)

func randomName(rng *rand.Rand) Name {
	n := make(Name, rng.Intn(6))
	for i := range n {
		l := rng.Intn(12)
		if rng.Intn(8) == 0 {
			l = lenEdges[rng.Intn(len(lenEdges)-1)] // up to 0xFFFF-octet components
		}
		n[i] = Component(strings.Repeat(string(rune('a'+rng.Intn(26))), l))
	}
	return n
}

func randomBytes(rng *rand.Rand) []byte {
	l := rng.Intn(40)
	if rng.Intn(4) == 0 {
		l = lenEdges[rng.Intn(len(lenEdges))]
	}
	b := make([]byte, l)
	rng.Read(b)
	return b
}

// TestEncodeMatchesNestedOracle holds the one-buffer encoder to the
// nested-append oracle byte for byte: randomized names (component lengths
// across the VAR-NUMBER boundaries), every optional field on and off,
// lifetimes, content types and freshness periods across the 1/2/4/8-octet
// boundaries, and unsigned, digest-signed and Ed25519-signed Data. Signing
// must produce the signature the oracle's signed portion yields.
func TestEncodeMatchesNestedOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 400; iter++ {
		it := &Interest{
			Name:        randomName(rng),
			CanBePrefix: rng.Intn(2) == 0,
			MustBeFresh: rng.Intn(2) == 0,
			Nonce:       rng.Uint32(),
			HopLimit:    uint8(rng.Intn(3) * rng.Intn(256)),
		}
		if rng.Intn(3) > 0 {
			it.Lifetime = time.Duration(nonNegEdges[rng.Intn(len(nonNegEdges))]) * time.Millisecond
		}
		if rng.Intn(2) == 0 {
			it.AppParams = randomBytes(rng)
		}
		checkAgainstOracle(t, it, nil)

		d := &Data{Name: randomName(rng), Content: randomBytes(rng)}
		if rng.Intn(2) == 0 {
			d.Type = nonNegEdges[rng.Intn(len(nonNegEdges))]
		}
		switch rng.Intn(3) {
		case 1:
			d.Freshness = time.Duration(rng.Intn(2000)) * time.Microsecond // sub-millisecond included
		case 2:
			d.Freshness = time.Duration(nonNegEdges[rng.Intn(len(nonNegEdges))]) * time.Millisecond
		}
		switch iter % 3 {
		case 0: // unsigned: whatever SigInfo and SigValue the fields hold
			d.SigInfo = SignatureInfo{Type: nonNegEdges[rng.Intn(len(nonNegEdges))], KeyLocator: randomName(rng)}
			d.SigValue = randomBytes(rng)
		case 1:
			d.SignDigest()
			want := sha256.Sum256(refSignedPortion(d))
			if !bytes.Equal(d.SigValue, want[:]) || d.Digest() != want {
				t.Fatalf("SignDigest of %+v: signature %x, digest %x, want %x", d, d.SigValue, d.Digest(), want)
			}
			if got := d.Encode(); !bytes.Equal(got, refEncodeData(d)) {
				t.Fatalf("SignDigest+Encode of %+v:\none-buffer %x\noracle     %x", d, got, refEncodeData(d))
			}
		case 2:
			s := edSigner{priv: priv, name: randomName(rng)}
			d.Sign(s)
			if want := ed25519.Sign(priv, refSignedPortion(d)); !bytes.Equal(d.SigValue, want) {
				t.Fatalf("Sign of %+v: signature %x, want %x", d, d.SigValue, want)
			}
		}
		checkAgainstOracle(t, nil, d)
	}
}

// The allocation pins run serially: testing.AllocsPerRun counts the
// allocations of every goroutine, so a parallel test could leak into them.

// TestEncodeAllocatesOnce pins the one-buffer encoder: a fresh Interest or
// Data serialization is one allocation, the exact-size wire buffer, for a
// fully populated packet.
func TestEncodeAllocatesOnce(t *testing.T) {
	it := &Interest{
		Name:        ParseName("/dapes/bitmap/0badf00d"),
		CanBePrefix: true,
		MustBeFresh: true,
		Nonce:       7,
		Lifetime:    4 * time.Second,
		HopLimit:    3,
		AppParams:   make([]byte, 40),
	}
	if allocs := testing.AllocsPerRun(100, func() {
		it.InvalidateWire()
		it.Encode()
	}); allocs != 1 {
		t.Errorf("Interest.Encode allocated %v times, want 1", allocs)
	}
	if got := it.Encode(); cap(got) != len(got) {
		t.Errorf("Interest wire: len %d, cap %d; want an exact-size buffer", len(got), cap(got))
	}
	d := &Data{
		Name:      ParseName("/field-report/image-000/17"),
		Type:      ContentTypeKey,
		Freshness: time.Second,
		Content:   make([]byte, 1000),
		SigInfo:   SignatureInfo{Type: SigTypeEd25519, KeyLocator: ParseName("/field-report/KEY/1")},
		SigValue:  make([]byte, 64),
	}
	if allocs := testing.AllocsPerRun(100, func() {
		d.InvalidateWire()
		d.Encode()
	}); allocs != 1 {
		t.Errorf("Data.Encode allocated %v times, want 1", allocs)
	}
	if got := d.Encode(); cap(got) != len(got) {
		t.Errorf("Data wire: len %d, cap %d; want an exact-size buffer", len(got), cap(got))
	}
}

// TestSignDigestEncodesOnce pins SignDigest followed by Encode to one
// serialization: one allocation in all, and Encode returns the wire
// SignDigest built.
func TestSignDigestEncodesOnce(t *testing.T) {
	d := &Data{Name: ParseName("/field-report/image-000/17"), Freshness: time.Second, Content: make([]byte, 1000)}
	if allocs := testing.AllocsPerRun(100, func() {
		d.SignDigest()
		d.Encode()
	}); allocs != 1 {
		t.Errorf("SignDigest+Encode allocated %v times, want 1", allocs)
	}
	d.SignDigest()
	wire := d.Encode()
	if !d.VerifyDigest() {
		t.Fatal("SignDigest produced a digest VerifyDigest rejects")
	}
	if sig := wire[len(wire)-sha256.Size:]; &sig[0] != &d.SigValue[0] {
		t.Error("SigValue is not the signature inside the cached wire")
	}
}
