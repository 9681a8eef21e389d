package ndn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// clampDurationMs converts a decoded millisecond count to a Duration,
// saturating instead of overflowing into negative durations on
// adversarially large values.
func clampDurationMs(ms uint64) time.Duration {
	if ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
		ms = uint64(math.MaxInt64 / int64(time.Millisecond))
	}
	return time.Duration(ms) * time.Millisecond
}

// freshnessMs converts a positive FreshnessPeriod to whole milliseconds
// for the wire, rounding sub-millisecond values up to 1 ms: the TLV is
// millisecond-granular, and encoding 500µs as 0 ms would silently turn a
// fresh-able packet into one that can never satisfy MustBeFresh after a
// single hop.
func freshnessMs(d time.Duration) uint64 {
	ms := uint64(d / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms
}

// ContentType values for Data packets.
const (
	// ContentTypeBlob is ordinary application payload.
	ContentTypeBlob uint64 = 0
	// ContentTypeKey marks a Data packet carrying a public key.
	ContentTypeKey uint64 = 2
)

// SignatureType values.
const (
	// SigTypeDigestSha256 is an integrity-only SHA-256 digest "signature".
	SigTypeDigestSha256 uint64 = 0
	// SigTypeEd25519 is an Ed25519 signature over the signed portion. (The
	// NDN spec assigns 5 to Ed25519.)
	SigTypeEd25519 uint64 = 5
)

// Interest is an NDN request for a named Data packet. DAPES carries protocol
// state (e.g. the sender's bitmap) in ApplicationParameters.
//
// Interests follow the encode-once / decode-once contract (see the package
// docs): Encode caches its wire form and DecodeInterest records the frame it
// parsed, so re-broadcasting an unmodified Interest reuses the exact bytes
// that were received. A packet that has been encoded or decoded is immutable;
// callers that need to change a field must InvalidateWire first (or build a
// fresh packet), otherwise Encode keeps returning the stale cached frame.
type Interest struct {
	Name        Name
	CanBePrefix bool
	MustBeFresh bool
	Nonce       uint32
	Lifetime    time.Duration
	HopLimit    uint8
	// AppParams views into the decoded wire buffer (no copy); treat it as
	// read-only.
	AppParams []byte

	// wire is the cached TLV form: the bytes Encode produced, or the exact
	// frame sub-slice DecodeInterest parsed.
	wire []byte
}

// InvalidateWire drops the cached wire form so the next Encode re-serializes
// the current field values. It is the explicit escape hatch from the
// immutability contract; in-simulation traffic never needs it.
func (i *Interest) InvalidateWire() { i.wire = nil }

// Encode returns the Interest's TLV wire form, serializing at most once: the
// first call caches the encoding (and a decoded Interest is born with the
// received frame cached), so every later call — retransmissions, multi-hop
// relays — returns the same shared byte slice. Callers must not modify it.
func (i *Interest) Encode() []byte {
	if i.wire != nil {
		return i.wire
	}
	ms := uint64(i.Lifetime / time.Millisecond)
	inner := tlvLen(tlvName, nameLen(i.Name)) + tlvLen(tlvNonce, 4)
	if i.CanBePrefix {
		inner += tlvLen(tlvCanBePrefix, 0)
	}
	if i.MustBeFresh {
		inner += tlvLen(tlvMustBeFresh, 0)
	}
	if i.Lifetime > 0 {
		inner += tlvLen(tlvInterestLifetime, nonNegLen(ms))
	}
	if i.HopLimit > 0 {
		inner += tlvLen(tlvHopLimit, 1)
	}
	if len(i.AppParams) > 0 {
		inner += tlvLen(tlvApplicationParameters, len(i.AppParams))
	}
	b := make([]byte, 0, tlvLen(tlvInterest, inner))
	b = appendTLVHeader(b, tlvInterest, inner)
	b = encodeName(b, i.Name)
	if i.CanBePrefix {
		b = appendTLVHeader(b, tlvCanBePrefix, 0)
	}
	if i.MustBeFresh {
		b = appendTLVHeader(b, tlvMustBeFresh, 0)
	}
	b = binary.BigEndian.AppendUint32(appendTLVHeader(b, tlvNonce, 4), i.Nonce)
	if i.Lifetime > 0 {
		b = appendNonNegTLV(b, tlvInterestLifetime, ms)
	}
	if i.HopLimit > 0 {
		b = append(appendTLVHeader(b, tlvHopLimit, 1), i.HopLimit)
	}
	if len(i.AppParams) > 0 {
		b = appendTLV(b, tlvApplicationParameters, i.AppParams)
	}
	i.wire = b
	return b
}

// DecodeInterest parses a TLV-encoded Interest. The decode is zero-copy:
// variable-length fields (AppParams) are sub-slice views into wire, and the
// packet's wire form is cached so a later Encode returns the received bytes
// verbatim. The caller must treat wire as immutable from here on.
func DecodeInterest(wire []byte) (*Interest, error) {
	outer := &tlvReader{buf: wire}
	body, err := outer.expect(tlvInterest)
	if err != nil {
		return nil, fmt.Errorf("interest: %w", err)
	}
	r := &tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return nil, fmt.Errorf("interest name: %w", err)
	}
	name, err := decodeName(nameVal)
	if err != nil {
		return nil, fmt.Errorf("interest name: %w", err)
	}
	// Cache exactly the packet's own bytes: decoding tolerates trailing
	// garbage after the outer element, which must not ride along on relays.
	it := &Interest{Name: name, wire: wire[:outer.pos]}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("interest field: %w", err)
		}
		switch typ {
		case tlvCanBePrefix:
			it.CanBePrefix = true
		case tlvMustBeFresh:
			it.MustBeFresh = true
		case tlvNonce:
			if len(v) != 4 {
				return nil, fmt.Errorf("%w: nonce of %d bytes", ErrBadPacket, len(v))
			}
			it.Nonce = uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3])
		case tlvInterestLifetime:
			ms, err := decodeNonNeg(v)
			if err != nil {
				return nil, err
			}
			it.Lifetime = clampDurationMs(ms)
		case tlvHopLimit:
			if len(v) == 1 {
				it.HopLimit = v[0]
			}
		case tlvApplicationParameters:
			it.AppParams = v // view into wire, not a copy
		}
	}
	return it, nil
}

// SignatureInfo describes how a Data packet is signed.
type SignatureInfo struct {
	Type uint64
	// KeyLocator names the signing key (empty for digest signatures).
	KeyLocator Name
}

// Data is an NDN Data packet: named, typed content bound to its name by a
// signature.
//
// Like Interest, Data follows the encode-once / decode-once contract: Encode
// caches the wire form (so a Content Store hit or a multi-hop relay answers
// with the original frame, never a re-serialization), and DecodeData records
// the frame it parsed. A packet that has been encoded or decoded is
// immutable; Sign invalidates the cache and SignDigest replaces it with the
// newly signed wire, and any other field change requires InvalidateWire
// first.
type Data struct {
	Name      Name
	Type      uint64
	Freshness time.Duration
	// Content and SigValue view into the decoded wire buffer (no copy);
	// treat them as read-only.
	Content  []byte
	SigInfo  SignatureInfo
	SigValue []byte

	// wire is the cached TLV form: the bytes Encode produced, or the exact
	// frame sub-slice DecodeData parsed.
	wire []byte
}

// InvalidateWire drops the cached wire form so the next Encode re-serializes
// the current field values.
func (d *Data) InvalidateWire() { d.wire = nil }

// dataLens holds the value sizes of a Data packet's nested TLVs, measured
// before its one-buffer serialization.
type dataLens struct {
	meta, sigInfo, keyLocator int
	signed                    int // the whole signed portion, headers included
}

// lens measures the packet's nested TLVs.
func (d *Data) lens() dataLens {
	var l dataLens
	if d.Type != ContentTypeBlob {
		l.meta += tlvLen(tlvContentType, nonNegLen(d.Type))
	}
	if d.Freshness > 0 {
		l.meta += tlvLen(tlvFreshnessPeriod, nonNegLen(freshnessMs(d.Freshness)))
	}
	l.sigInfo = tlvLen(tlvSignatureType, nonNegLen(d.SigInfo.Type))
	if len(d.SigInfo.KeyLocator) > 0 {
		l.keyLocator = tlvLen(tlvName, nameLen(d.SigInfo.KeyLocator))
		l.sigInfo += tlvLen(tlvKeyLocator, l.keyLocator)
	}
	l.signed = tlvLen(tlvName, nameLen(d.Name)) + tlvLen(tlvMetaInfo, l.meta) +
		tlvLen(tlvContent, len(d.Content)) + tlvLen(tlvSignatureInfo, l.sigInfo)
	return l
}

// appendSignedPortion appends the fields covered by the signature: Name,
// MetaInfo, Content, and SignatureInfo.
func (d *Data) appendSignedPortion(b []byte, l dataLens) []byte {
	b = encodeName(b, d.Name)
	b = appendTLVHeader(b, tlvMetaInfo, l.meta)
	if d.Type != ContentTypeBlob {
		b = appendNonNegTLV(b, tlvContentType, d.Type)
	}
	if d.Freshness > 0 {
		b = appendNonNegTLV(b, tlvFreshnessPeriod, freshnessMs(d.Freshness))
	}
	b = appendTLV(b, tlvContent, d.Content)
	b = appendTLVHeader(b, tlvSignatureInfo, l.sigInfo)
	b = appendNonNegTLV(b, tlvSignatureType, d.SigInfo.Type)
	if len(d.SigInfo.KeyLocator) > 0 {
		b = appendTLVHeader(b, tlvKeyLocator, l.keyLocator)
		b = encodeName(b, d.SigInfo.KeyLocator)
	}
	return b
}

// signedPortion serializes the signed portion into a buffer of its own.
func (d *Data) signedPortion() []byte {
	l := d.lens()
	return d.appendSignedPortion(make([]byte, 0, l.signed), l)
}

// marshal serializes the whole packet with SignatureValue sig into one
// exact-size buffer, returning it and the offset of the signed portion.
func (d *Data) marshal(sig []byte) (wire []byte, signedAt int) {
	l := d.lens()
	inner := l.signed + tlvLen(tlvSignatureValue, len(sig))
	b := make([]byte, 0, tlvLen(tlvData, inner))
	b = appendTLVHeader(b, tlvData, inner)
	signedAt = len(b)
	b = d.appendSignedPortion(b, l)
	return appendTLV(b, tlvSignatureValue, sig), signedAt
}

// Encode returns the Data packet's TLV wire form, serializing at most once
// (see the type docs). The signature value must already be populated (via
// Sign or SignDigest). Callers must not modify the returned slice.
func (d *Data) Encode() []byte {
	if d.wire == nil {
		d.wire, _ = d.marshal(d.SigValue)
	}
	return d.wire
}

// DecodeData parses a TLV-encoded Data packet. The decode is zero-copy:
// Content and SigValue are sub-slice views into wire, and the packet's wire
// form is cached so a later Encode returns the received bytes verbatim. The
// caller must treat wire as immutable from here on.
func DecodeData(wire []byte) (*Data, error) {
	outer := &tlvReader{buf: wire}
	body, err := outer.expect(tlvData)
	if err != nil {
		return nil, fmt.Errorf("data: %w", err)
	}
	r := &tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return nil, fmt.Errorf("data name: %w", err)
	}
	name, err := decodeName(nameVal)
	if err != nil {
		return nil, fmt.Errorf("data name: %w", err)
	}
	d := &Data{Name: name, wire: wire[:outer.pos]}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("data field: %w", err)
		}
		switch typ {
		case tlvMetaInfo:
			mr := &tlvReader{buf: v}
			for !mr.done() {
				mtyp, mv, err := mr.next()
				if err != nil {
					return nil, fmt.Errorf("metainfo: %w", err)
				}
				switch mtyp {
				case tlvContentType:
					ct, err := decodeNonNeg(mv)
					if err != nil {
						return nil, err
					}
					d.Type = ct
				case tlvFreshnessPeriod:
					ms, err := decodeNonNeg(mv)
					if err != nil {
						return nil, err
					}
					d.Freshness = clampDurationMs(ms)
				}
			}
		case tlvContent:
			d.Content = v // view into wire, not a copy
		case tlvSignatureInfo:
			sr := &tlvReader{buf: v}
			for !sr.done() {
				styp, sv, err := sr.next()
				if err != nil {
					return nil, fmt.Errorf("signature info: %w", err)
				}
				switch styp {
				case tlvSignatureType:
					st, err := decodeNonNeg(sv)
					if err != nil {
						return nil, err
					}
					d.SigInfo.Type = st
				case tlvKeyLocator:
					kr := &tlvReader{buf: sv}
					klVal, err := kr.expect(tlvName)
					if err != nil {
						return nil, fmt.Errorf("key locator: %w", err)
					}
					kl, err := decodeName(klVal)
					if err != nil {
						return nil, err
					}
					d.SigInfo.KeyLocator = kl
				}
			}
		case tlvSignatureValue:
			d.SigValue = v // view into wire, not a copy
		}
	}
	return d, nil
}

// Digest returns the SHA-256 digest of the Data packet's signed portion; this
// is the per-packet digest DAPES metadata records (Section IV-C) so receivers
// can verify integrity without a full signature check.
func (d *Data) Digest() [32]byte {
	return sha256.Sum256(d.signedPortion())
}

// SignDigest populates an integrity-only DigestSha256 "signature". It
// serializes the packet once: the digest is taken over the signed portion
// of the new wire form, written into its SignatureValue, and the wire is
// cached, so the Encode that follows returns it (SigValue views into it).
func (d *Data) SignDigest() {
	d.SigInfo = SignatureInfo{Type: SigTypeDigestSha256}
	var placeholder [sha256.Size]byte
	wire, at := d.marshal(placeholder[:])
	sig := wire[len(wire)-sha256.Size:]
	sum := sha256.Sum256(wire[at : len(wire)-tlvLen(tlvSignatureValue, sha256.Size)])
	copy(sig, sum[:])
	d.SigValue, d.wire = sig, wire
}

// VerifyDigest checks a DigestSha256 signature.
func (d *Data) VerifyDigest() bool {
	if d.SigInfo.Type != SigTypeDigestSha256 || len(d.SigValue) != 32 {
		return false
	}
	sum := sha256.Sum256(d.signedPortion())
	for i, b := range sum {
		if d.SigValue[i] != b {
			return false
		}
	}
	return true
}

// Signer produces signatures binding packet content to names. Implemented by
// keys.Key.
type Signer interface {
	// Sign returns a signature over msg.
	Sign(msg []byte) []byte
	// KeyName returns the name placed in the KeyLocator.
	KeyName() Name
}

// Sign populates an Ed25519 signature using the given signer.
func (d *Data) Sign(s Signer) {
	d.SigInfo = SignatureInfo{Type: SigTypeEd25519, KeyLocator: s.KeyName()}
	d.SigValue = s.Sign(d.signedPortion())
	d.wire = nil // signature changed: any cached wire is stale
}

// Verify checks the Ed25519 signature with verify, a function mapping
// (keyName, message, sig) to validity. Implemented by keys.TrustStore.
func (d *Data) Verify(verify func(key Name, msg, sig []byte) bool) bool {
	if d.SigInfo.Type != SigTypeEd25519 {
		return false
	}
	return verify(d.SigInfo.KeyLocator, d.signedPortion(), d.SigValue)
}
