package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dapes/internal/bitmap"
	"dapes/internal/ndn"
)

// Protocol namespace (Section IV-B): signaling lives under /dapes.
var (
	protocolPrefix  = ndn.ParseName("/dapes")
	discoveryPrefix = ndn.ParseName("/dapes/discovery")
	bitmapPrefix    = ndn.ParseName("/dapes/bitmap")
)

var errBadMessage = errors.New("core: malformed protocol message")

// discoveryInterestName names a peer's discovery beacon. The beacon name is
// the bare discovery prefix (with CanBePrefix) so that discovery replies —
// named under the same prefix — match it for reverse-path forwarding by
// intermediate nodes; the sender rides in ApplicationParameters. Every
// beacon shares the one prefix Name: a packet's Name is read-only.
func discoveryInterestName() ndn.Name {
	return discoveryPrefix
}

// isDiscoveryInterest recognizes beacon Interests and extracts the sender
// from the application parameters.
func isDiscoveryInterest(in *ndn.Interest) (peerID int, ok bool) {
	if !in.Name.Equal(discoveryPrefix) {
		return 0, false
	}
	if len(in.AppParams) != 4 {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(in.AppParams)), true
}

// discoveryReplyPrefix is the prefix of a responder's discovery Data names,
// /dapes/discovery/reply/<responder>; a reply appends its sequence number,
// which makes successive replies distinct.
func discoveryReplyPrefix(peerID int) ndn.Name {
	return discoveryPrefix.Append("reply").AppendSeq(peerID)
}

// isDiscoveryReply recognizes discovery Data and extracts the responder.
func isDiscoveryReply(name ndn.Name) (peerID int, ok bool) {
	if !discoveryPrefix.IsPrefixOf(name) || name.Len() != discoveryPrefix.Len()+3 {
		return 0, false
	}
	if name.At(discoveryPrefix.Len()) != "reply" {
		return 0, false
	}
	// The responder is the next-to-last component: drop the last in place.
	id, err := name[:name.Len()-1].Seq()
	if err != nil {
		return 0, false
	}
	return id, true
}

// discoveryPayload is the content of a discovery Data packet: the metadata
// names of the collections the responder can offer.
type discoveryPayload struct {
	MetadataNames []ndn.Name
}

func (p discoveryPayload) encode() []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(p.MetadataNames)))
	for _, n := range p.MetadataNames {
		uri := n.String()
		b = binary.BigEndian.AppendUint16(b, uint16(len(uri)))
		b = append(b, uri...)
	}
	return b
}

// offerReader reads a received discovery payload in place: next returns
// each offered metadata name's URI as a view into the payload, and no Name
// is built (docs/CONTRACTS.md, "Send path: encode once, one
// duplicate-nonce table").
type offerReader struct {
	buf  []byte // the URI entries not yet read
	left int    // how many of them
}

// readOffers checks the whole payload before any offer is read, so a
// malformed reply is dropped entirely, as a failed decode would be.
// Bytes after the last entry are ignored.
func readOffers(buf []byte) (offerReader, error) {
	if len(buf) < 2 {
		return offerReader{}, errBadMessage
	}
	count := int(binary.BigEndian.Uint16(buf))
	pos := 2
	for i := 0; i < count; i++ {
		if pos+2 > len(buf) {
			return offerReader{}, errBadMessage
		}
		pos += 2 + int(binary.BigEndian.Uint16(buf[pos:]))
		if pos > len(buf) {
			return offerReader{}, errBadMessage
		}
	}
	return offerReader{buf: buf[2:pos], left: count}, nil
}

// next returns the next offered URI, or false after the last one.
func (r *offerReader) next() ([]byte, bool) {
	if r.left == 0 {
		return nil, false
	}
	r.left--
	l := int(binary.BigEndian.Uint16(r.buf))
	uri := r.buf[2 : 2+l]
	r.buf = r.buf[2+l:]
	return uri, true
}

// offeredCollection returns the URI of the collection an offered metadata
// name belongs to: the name without its last two components
// (/metadata-file/<version>). Like ndn.ParseName it ignores empty
// components; ok is false when the name has fewer than three.
func offeredCollection(metaURI []byte) (uri []byte, ok bool) {
	end := len(metaURI)
	for range 2 {
		for end > 0 && metaURI[end-1] == '/' {
			end--
		}
		if end == 0 {
			return nil, false
		}
		for end > 0 && metaURI[end-1] != '/' {
			end--
		}
	}
	for _, c := range metaURI[:end] {
		if c != '/' {
			return metaURI[:end], true
		}
	}
	return nil, false
}

// bitmapPayload travels in bitmap Interests (AppParams) and bitmap Data
// (content): the owner's bitmap for one collection. It is the encoding
// side; received payloads are decoded in place into an advert.
type bitmapPayload struct {
	Collection string // the collection's URI
	Owner      int
	Bitmap     *bitmap.Bitmap
}

func (p bitmapPayload) encode() []byte {
	// Room for the URI and owner headers plus the bitmap's whole words.
	b := make([]byte, 0, 2+len(p.Collection)+4+4+p.Bitmap.Len()/8+8)
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Collection)))
	b = append(b, p.Collection...)
	b = binary.BigEndian.AppendUint32(b, uint32(p.Owner))
	return p.Bitmap.AppendEncode(b)
}

// advert is a received bitmap payload decoded in place into scratch a peer
// owns: every field is overwritten by the next decode, so a decoded advert
// is valid only inside the handler that decoded it, and whatever outlives
// the handler is copied out (docs/CONTRACTS.md). No Name is built: the
// collection's map key comes straight from the URI bytes.
type advert struct {
	uri    []byte // the collection URI: a view into the decoded buffer
	key    []byte // ndn.AppendURIKey(uri): the collection's map key
	owner  int
	bitmap *bitmap.Bitmap
}

// decode parses a bitmapPayload encoding into a. On error a keeps its
// previous contents.
func (a *advert) decode(buf []byte) error {
	if len(buf) < 2 {
		return errBadMessage
	}
	l := int(binary.BigEndian.Uint16(buf))
	pos := 2
	if pos+l+4 > len(buf) {
		return errBadMessage
	}
	uri := buf[pos : pos+l]
	pos += l
	owner := int(binary.BigEndian.Uint32(buf[pos:]))
	pos += 4
	if a.bitmap == nil {
		a.bitmap = bitmap.New(0)
	}
	if err := a.bitmap.Load(buf[pos:]); err != nil {
		return fmt.Errorf("core: bitmap payload: %w", err)
	}
	a.uri, a.owner = uri, owner
	a.key = ndn.AppendURIKey(a.key[:0], uri)
	return nil
}

// collection builds the advertised collection's Name, for the one caller
// that keeps it: a collection state created from an overheard advert.
func (a *advert) collection() ndn.Name {
	return ndn.ParseName(string(a.uri))
}

// collectionKey is a short stable name component for a collection, used in
// bitmap packet names (full URIs ride in the payload). It is computed once
// per collection state, inside bitmapInterestName.
func collectionKey(collection ndn.Name) ndn.Component {
	sum := uint32(2166136261)
	for _, c := range collection {
		for i := 0; i < len(c); i++ {
			sum ^= uint32(c[i])
			sum *= 16777619
		}
		sum ^= '/'
		sum *= 16777619
	}
	return ndn.Component(fmt.Sprintf("%08x", sum))
}

// bitmapInterestName names a bitmap request: /dapes/bitmap/<collKey>. The
// name is a prefix of the advertisement Data names so that forwarded bitmap
// Interests pull advertisements back across hops; the requester's identity
// and bitmap ride in ApplicationParameters. Each collection state builds
// it once (collectionState.bitmapName).
func bitmapInterestName(collection ndn.Name) ndn.Name {
	return bitmapPrefix.Append(collectionKey(collection))
}

// bitmapDataPrefix is the prefix of owner's advertisement Data names for
// the collection whose bitmap Interest name is interestName:
// /dapes/bitmap/<collKey>/adv/<owner>. A transmission appends its
// sequence number.
func bitmapDataPrefix(interestName ndn.Name, owner int) ndn.Name {
	return interestName.Append("adv").AppendSeq(owner)
}

// isBitmapInterest reports whether the name is a bitmap Interest.
func isBitmapInterest(name ndn.Name) bool {
	return bitmapPrefix.IsPrefixOf(name) && name.Len() == bitmapPrefix.Len()+1
}

// isBitmapData reports whether the name is a bitmap advertisement Data.
func isBitmapData(name ndn.Name) bool {
	return bitmapPrefix.IsPrefixOf(name) &&
		name.Len() == bitmapPrefix.Len()+4 &&
		name.At(bitmapPrefix.Len()+1) == "adv"
}

// isProtocolName reports whether the name belongs to the /dapes signaling
// namespace (as opposed to collection data).
func isProtocolName(name ndn.Name) bool {
	return protocolPrefix.IsPrefixOf(name)
}
