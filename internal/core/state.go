package core

import (
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/peba"
	"dapes/internal/rpf"
	"dapes/internal/sim"
)

// neighbor tracks one peer currently (or recently) in communication range.
type neighbor struct {
	id        int
	lastHeard time.Duration
	// offers holds the keys (ndn.Name.AppendKey) of the collections the
	// neighbor offered in discovery; only their presence is read.
	offers map[string]struct{}
}

// advertSession is the per-encounter bitmap exchange state (Section IV-F):
// the union of previously transmitted bitmaps and the PEBA backoff. Sessions
// are reset per encounter; the pending transmission timer lives on the
// collectionState (collectionState.txT) so the reusable timer survives the
// per-encounter wipe.
type advertSession struct {
	active       bool
	heardUnion   *bitmap.Bitmap
	heardCount   int
	transmitted  bool
	lastActivity time.Duration
	backoff      *peba.Backoff
	txSeq        int
}

// collectionState is everything a peer knows about one collection.
type collectionState struct {
	collection ndn.Name
	key        string   // collection.AppendKey: this state's map key
	metaName   ndn.Name // learned from discovery (or Publish)

	// The names and URI this peer's bitmap sends carry, built once:
	// bitmapName is bitmapInterestName(collection) (so it caches the
	// collectionKey), uri the payload's collection URI, and dataPrefix
	// this peer's advertisement-name prefix, built on its first
	// advertisement.
	bitmapName ndn.Name
	uri        string
	dataPrefix ndn.Name

	// Metadata fetch progress. metaT is the segment-retry timer, created
	// lazily and re-armed for the collection's whole life; armed (Pending)
	// means a segment fetch is outstanding.
	metaSegs  map[int]*ndn.Data
	metaTotal int // -1 until the first segment reveals it
	metaT     *sim.Timer

	manifest *metadata.Manifest // nil until assembled and verified

	own     *bitmap.Bitmap
	packets map[int]*ndn.Data // global index -> verified Data

	// unverified buffers Merkle-format packets per file until the file
	// completes and can be verified as a whole (Section IV-C).
	unverified map[int]map[int]*ndn.Data // file -> pkt -> data

	strategy rpf.Strategy

	// availability: latest advertised bitmap per neighbor. A neighbor's
	// bitmap is allocated when it is first heard and overwritten in place
	// afterwards (storeAvail).
	avail map[int]*bitmap.Bitmap
	// union and allOnes are selectNext's availability bitmaps, kept here so
	// a selection allocates nothing (availabilityUnion).
	union, allOnes *bitmap.Bitmap

	session advertSession
	// txT arms this peer's prioritized advertisement transmission (armed =
	// a bitmap transmission is pending). One timer per collection, reused
	// across the constant cancel/reschedule churn of the PEBA exchange.
	txT *sim.Timer

	// inflight data Interests: global index -> timeout record (pooled on
	// the peer).
	inflight map[int]*inflightTimer
	fetching bool

	startedAt  time.Duration
	doneAt     time.Duration
	done       bool
	subscribed bool // this peer wants to download the collection
}

func newCollectionState(collection ndn.Name) *collectionState {
	return &collectionState{
		collection: collection.Clone(),
		key:        string(collection.AppendKey(nil)),
		bitmapName: bitmapInterestName(collection),
		uri:        collection.String(),
		metaSegs:   make(map[int]*ndn.Data),
		metaTotal:  -1,
		packets:    make(map[int]*ndn.Data),
		unverified: make(map[int]map[int]*ndn.Data),
		avail:      make(map[int]*bitmap.Bitmap),
		inflight:   make(map[int]*inflightTimer),
	}
}

// storeAvail records owner's latest advertised bitmap, copying it into the
// bitmap already stored for owner or, on first sight, into a clone.
func (cs *collectionState) storeAvail(owner int, bm *bitmap.Bitmap) {
	if old, ok := cs.avail[owner]; ok {
		old.CopyFrom(bm)
		return
	}
	cs.avail[owner] = bm.Clone()
}

// availabilityUnion returns the union of all live advertised bitmaps. The
// result is storage owned by the collection, valid until the next call.
func (cs *collectionState) availabilityUnion(n int) *bitmap.Bitmap {
	if cs.union == nil || cs.union.Len() != n {
		cs.union = bitmap.New(n)
	} else {
		cs.union.ClearAll()
	}
	for _, bm := range cs.avail {
		if bm.Len() == n {
			// Union never fails for equal lengths.
			_ = cs.union.Or(bm)
		}
	}
	return cs.union
}

// complete reports whether every packet has been verified and stored.
func (cs *collectionState) complete() bool {
	return cs.manifest != nil && cs.own != nil && cs.own.Full()
}

// progress returns verified packets over total (0 when metadata is unknown).
func (cs *collectionState) progress() (have, total int) {
	if cs.manifest == nil {
		return 0, 0
	}
	return cs.own.Count(), cs.manifest.TotalPackets()
}
