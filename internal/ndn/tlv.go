package ndn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// TLV type numbers from the NDN packet specification (the subset used here).
const (
	tlvInterest              = 0x05
	tlvData                  = 0x06
	tlvName                  = 0x07
	tlvGenericNameComponent  = 0x08
	tlvCanBePrefix           = 0x21
	tlvMustBeFresh           = 0x12
	tlvNonce                 = 0x0A
	tlvInterestLifetime      = 0x0C
	tlvHopLimit              = 0x22
	tlvApplicationParameters = 0x24
	tlvMetaInfo              = 0x14
	tlvContent               = 0x15
	tlvSignatureInfo         = 0x16
	tlvSignatureValue        = 0x17
	tlvContentType           = 0x18
	tlvFreshnessPeriod       = 0x19
	tlvSignatureType         = 0x1B
	tlvKeyLocator            = 0x1C
)

// Errors returned by the TLV decoder.
var (
	ErrTruncated  = errors.New("ndn: truncated TLV")
	ErrBadPacket  = errors.New("ndn: malformed packet")
	ErrWrongType  = errors.New("ndn: unexpected TLV type")
	errBadVarsize = errors.New("ndn: invalid variable-size number")
)

// appendVarNum appends an NDN variable-size number (1/3/5/9-octet form).
func appendVarNum(b []byte, v uint64) []byte {
	switch {
	case v < 253:
		return append(b, byte(v))
	case v <= 0xFFFF:
		b = append(b, 253)
		return binary.BigEndian.AppendUint16(b, uint16(v))
	case v <= 0xFFFFFFFF:
		b = append(b, 254)
		return binary.BigEndian.AppendUint32(b, uint32(v))
	default:
		b = append(b, 255)
		return binary.BigEndian.AppendUint64(b, v)
	}
}

// readVarNum decodes a variable-size number, returning the value and the
// number of bytes consumed.
func readVarNum(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	switch first := b[0]; {
	case first < 253:
		return uint64(first), 1, nil
	case first == 253:
		if len(b) < 3 {
			return 0, 0, ErrTruncated
		}
		return uint64(binary.BigEndian.Uint16(b[1:3])), 3, nil
	case first == 254:
		if len(b) < 5 {
			return 0, 0, ErrTruncated
		}
		return uint64(binary.BigEndian.Uint32(b[1:5])), 5, nil
	default:
		if len(b) < 9 {
			return 0, 0, ErrTruncated
		}
		return binary.BigEndian.Uint64(b[1:9]), 9, nil
	}
}

// varNumLen returns the size of appendVarNum's encoding of v.
func varNumLen(v uint64) int {
	switch {
	case v < 253:
		return 1
	case v <= 0xFFFF:
		return 3
	case v <= 0xFFFFFFFF:
		return 5
	default:
		return 9
	}
}

// tlvLen returns the encoded size of a TLV element whose value is l octets.
func tlvLen(typ uint64, l int) int {
	return varNumLen(typ) + varNumLen(uint64(l)) + l
}

// appendTLVHeader appends the type and length of a TLV element whose l
// value octets the caller appends next. Nested elements are encoded this
// way, sized first, so a packet serializes into one buffer.
func appendTLVHeader(b []byte, typ uint64, l int) []byte {
	b = appendVarNum(b, typ)
	return appendVarNum(b, uint64(l))
}

// appendTLV appends one type-length-value element.
func appendTLV(b []byte, typ uint64, value []byte) []byte {
	return append(appendTLVHeader(b, typ, len(value)), value...)
}

// nonNegLen returns the shortest of 1/2/4/8 octets that holds v.
func nonNegLen(v uint64) int {
	switch {
	case v <= 0xFF:
		return 1
	case v <= 0xFFFF:
		return 2
	case v <= 0xFFFFFFFF:
		return 4
	default:
		return 8
	}
}

// appendNonNegTLV appends a TLV whose value is a big-endian non-negative
// integer in the shortest of 1/2/4/8 octets.
func appendNonNegTLV(b []byte, typ uint64, v uint64) []byte {
	l := nonNegLen(v)
	b = appendTLVHeader(b, typ, l)
	switch l {
	case 1:
		return append(b, byte(v))
	case 2:
		return binary.BigEndian.AppendUint16(b, uint16(v))
	case 4:
		return binary.BigEndian.AppendUint32(b, uint32(v))
	default:
		return binary.BigEndian.AppendUint64(b, v)
	}
}

// decodeNonNeg parses a shortest-form non-negative integer value.
func decodeNonNeg(b []byte) (uint64, error) {
	switch len(b) {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.BigEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.BigEndian.Uint32(b)), nil
	case 8:
		return binary.BigEndian.Uint64(b), nil
	default:
		return 0, fmt.Errorf("%w: non-negative integer of %d bytes", ErrBadPacket, len(b))
	}
}

// tlvReader walks a flat sequence of TLV elements.
type tlvReader struct {
	buf []byte
	pos int
}

func (r *tlvReader) done() bool { return r.pos >= len(r.buf) }

// peekType returns the type of the next element without consuming it.
func (r *tlvReader) peekType() (uint64, error) {
	typ, _, err := readVarNum(r.buf[r.pos:])
	return typ, err
}

// next consumes and returns the next element.
func (r *tlvReader) next() (typ uint64, value []byte, err error) {
	typ, n, err := readVarNum(r.buf[r.pos:])
	if err != nil {
		return 0, nil, err
	}
	r.pos += n
	length, n, err := readVarNum(r.buf[r.pos:])
	if err != nil {
		return 0, nil, err
	}
	r.pos += n
	if uint64(len(r.buf)-r.pos) < length {
		return 0, nil, ErrTruncated
	}
	value = r.buf[r.pos : r.pos+int(length)]
	r.pos += int(length)
	return typ, value, nil
}

// expect consumes the next element and errors unless it has the given type.
func (r *tlvReader) expect(typ uint64) ([]byte, error) {
	got, value, err := r.next()
	if err != nil {
		return nil, err
	}
	if got != typ {
		return nil, fmt.Errorf("%w: got %#x, want %#x", ErrWrongType, got, typ)
	}
	return value, nil
}

// nameLen returns the value size of a name's Name TLV: the encoded size of
// its components.
func nameLen(n Name) int {
	l := 0
	for _, c := range n {
		l += tlvLen(tlvGenericNameComponent, len(c))
	}
	return l
}

// encodeName appends the TLV encoding of a name.
func encodeName(b []byte, n Name) []byte {
	b = appendTLVHeader(b, tlvName, nameLen(n))
	for _, c := range n {
		b = appendTLVHeader(b, tlvGenericNameComponent, len(c))
		b = append(b, c...)
	}
	return b
}

// decodeName parses a Name TLV value (the inner component sequence). The
// components are counted first and then sliced from one string, so a name
// costs two allocations however many components it has.
func decodeName(value []byte) (Name, error) {
	count, size := 0, 0
	r := tlvReader{buf: value}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return nil, err
		}
		// Unknown component types are skipped; DAPES only produces generic
		// components.
		if typ == tlvGenericNameComponent {
			count++
			size += len(v)
		}
	}
	if count == 0 {
		return nil, nil
	}
	var b strings.Builder
	b.Grow(size)
	r.pos = 0
	for !r.done() {
		if typ, v, _ := r.next(); typ == tlvGenericNameComponent {
			b.Write(v)
		}
	}
	all := b.String()
	n := make(Name, 0, count)
	r.pos = 0
	for !r.done() {
		if typ, v, _ := r.next(); typ == tlvGenericNameComponent {
			n = append(n, Component(all[:len(v)]))
			all = all[len(v):]
		}
	}
	return n, nil
}
