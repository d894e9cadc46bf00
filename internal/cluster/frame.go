package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"stir/internal/twitter"
)

// The forward frame is the body of POST /cluster/v1/ingest: one header and
// count fixed-width records, little-endian.
//
//	header  version u8 | seq i64 | count u32                         13 bytes
//	record  tweet id i64 | user id i64 | geo u8 | lat f64 | lon f64   33 bytes
//
// A record carries exactly what the worker's engine reads. Text and
// CreatedAt stay on the router: nothing in stream or cluster looks at them.
// Coordinates travel as raw IEEE-754 bits, so NaN and ±Inf geotags cross
// the hop unchanged and the worker's resolver decides them (as no-match),
// instead of the encoder refusing the whole chunk. A record without a
// geotag has geo 0 and zero coordinate bits; any other geo byte, or
// non-zero bits on a geo-less record, is malformed. That keeps the encoding
// canonical: every accepted frame re-encodes to the same bytes.
const (
	frameVersion   = 1
	frameHeaderLen = 1 + 8 + 4
	frameRecordLen = 8 + 8 + 1 + 8 + 8
	// maxFrameTweets bounds one forward body (~33 MiB); the router clamps
	// ForwardBatch to it.
	maxFrameTweets = 1 << 20
)

// errBadFrame marks a body that is not a well-formed forward frame.
var errBadFrame = errors.New("cluster: bad forward frame")

// frameLen is the encoded size of a frame holding n tweets.
func frameLen(n int) int { return frameHeaderLen + n*frameRecordLen }

// appendFrame appends the frame for seq and tweets (none nil) to dst. With
// enough capacity in dst it allocates nothing.
func appendFrame(dst []byte, seq int64, tweets []*twitter.Tweet) []byte {
	dst = append(dst, frameVersion)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(seq))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tweets)))
	for _, t := range tweets {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.ID))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.UserID))
		var geo byte
		var lat, lon uint64
		if t.Geo != nil {
			geo, lat, lon = 1, math.Float64bits(t.Geo.Lat), math.Float64bits(t.Geo.Lon)
		}
		dst = append(dst, geo)
		dst = binary.LittleEndian.AppendUint64(dst, lat)
		dst = binary.LittleEndian.AppendUint64(dst, lon)
	}
	return dst
}

// decodeFrame parses a forward frame into one tweet slab and one geotag
// slab: two allocations whatever the count, none for an empty frame. The
// body is validated whole before anything is allocated, and the result
// does not alias b.
func decodeFrame(b []byte) (seq int64, tweets []twitter.Tweet, err error) {
	if len(b) < frameHeaderLen {
		return 0, nil, fmt.Errorf("%w: %d bytes, header needs %d", errBadFrame, len(b), frameHeaderLen)
	}
	if b[0] != frameVersion {
		return 0, nil, fmt.Errorf("%w: version %d, want %d", errBadFrame, b[0], frameVersion)
	}
	seq = int64(binary.LittleEndian.Uint64(b[1:]))
	count := binary.LittleEndian.Uint32(b[9:])
	recs := b[frameHeaderLen:]
	if uint64(count)*frameRecordLen != uint64(len(recs)) {
		return 0, nil, fmt.Errorf("%w: count %d needs %d record bytes, body has %d",
			errBadFrame, count, uint64(count)*frameRecordLen, len(recs))
	}
	geos := 0
	for off := 0; off < len(recs); off += frameRecordLen {
		switch r := recs[off : off+frameRecordLen]; r[16] {
		case 1:
			geos++
		case 0:
			if binary.LittleEndian.Uint64(r[17:]) != 0 || binary.LittleEndian.Uint64(r[25:]) != 0 {
				return 0, nil, fmt.Errorf("%w: record %d has coordinates without a geotag", errBadFrame, off/frameRecordLen)
			}
		default:
			return 0, nil, fmt.Errorf("%w: record %d geo byte %d", errBadFrame, off/frameRecordLen, r[16])
		}
	}
	if count == 0 {
		return seq, nil, nil
	}
	tweets = make([]twitter.Tweet, count)
	var tags []twitter.GeoTag
	if geos > 0 {
		tags = make([]twitter.GeoTag, geos)
	}
	for i := range tweets {
		r := recs[i*frameRecordLen : (i+1)*frameRecordLen]
		t := &tweets[i]
		t.ID = twitter.TweetID(binary.LittleEndian.Uint64(r))
		t.UserID = twitter.UserID(binary.LittleEndian.Uint64(r[8:]))
		if r[16] == 1 {
			g := &tags[0]
			tags = tags[1:]
			g.Lat = math.Float64frombits(binary.LittleEndian.Uint64(r[17:]))
			g.Lon = math.Float64frombits(binary.LittleEndian.Uint64(r[25:]))
			t.Geo = g
		}
	}
	return seq, tweets, nil
}
