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
// intermediate nodes; the sender rides in ApplicationParameters.
func discoveryInterestName() ndn.Name {
	return discoveryPrefix.Clone()
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

// discoveryReplyName names a discovery Data packet: /dapes/discovery/reply/
// <responder>/<seq>. The sequence makes successive replies distinct.
func discoveryReplyName(peerID, seq int) ndn.Name {
	return discoveryPrefix.Append("reply").AppendSeq(peerID).AppendSeq(seq)
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

func decodeDiscoveryPayload(buf []byte) (discoveryPayload, error) {
	var p discoveryPayload
	if len(buf) < 2 {
		return p, errBadMessage
	}
	count := int(binary.BigEndian.Uint16(buf))
	pos := 2
	for i := 0; i < count; i++ {
		if pos+2 > len(buf) {
			return p, errBadMessage
		}
		l := int(binary.BigEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+l > len(buf) {
			return p, errBadMessage
		}
		p.MetadataNames = append(p.MetadataNames, ndn.ParseName(string(buf[pos:pos+l])))
		pos += l
	}
	return p, nil
}

// bitmapPayload travels in bitmap Interests (AppParams) and bitmap Data
// (content): the owner's bitmap for one collection. It is the encoding
// side; received payloads are decoded in place into an advert.
type bitmapPayload struct {
	Collection ndn.Name
	Owner      int
	Bitmap     *bitmap.Bitmap
}

func (p bitmapPayload) encode() []byte {
	uri := p.Collection.String()
	// Room for the URI and owner headers plus the bitmap's whole words.
	b := make([]byte, 0, 2+len(uri)+4+4+p.Bitmap.Len()/8+8)
	b = binary.BigEndian.AppendUint16(b, uint16(len(uri)))
	b = append(b, uri...)
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
// bitmap packet names (full URIs ride in the payload).
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
// and bitmap ride in ApplicationParameters.
func bitmapInterestName(collection ndn.Name) ndn.Name {
	return bitmapPrefix.Append(collectionKey(collection))
}

// bitmapDataName names an advertisement transmission: /dapes/bitmap/
// <collKey>/adv/<owner>/<seq>.
func bitmapDataName(collection ndn.Name, peerID, seq int) ndn.Name {
	return bitmapPrefix.Append(collectionKey(collection), "adv").AppendSeq(peerID).AppendSeq(seq)
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
