// Wire codecs for Algorithm A2's messages (see internal/wire): the
// (K, msgSet) bundle, the []Record batches that travel as consensus
// values, and the catch-up answer (recover.go's syncCodec).
package abcast

import (
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

func init() {
	wire.Register(wire.KindABcastBundle,
		func(buf []byte, m BundleMsg) []byte { return m.AppendTo(buf) },
		func(data []byte) (m BundleMsg, rest []byte, err error) { rest, err = m.DecodeFrom(data); return })
	wire.Register(wire.KindABcastRecords, AppendRecords, DecodeRecords)
	syncCodec.Register(wire.KindA2SyncResp)
}

// AppendTo appends r's wire encoding.
func (r Record) AppendTo(buf []byte) []byte {
	buf = r.ID.AppendTo(buf)
	return wire.AppendValue(buf, r.Payload)
}

// DecodeFrom decodes r from data and returns the remainder.
func (r *Record) DecodeFrom(data []byte) (rest []byte, err error) {
	if r.ID, data, err = types.DecodeMessageID(data); err != nil {
		return nil, err
	}
	r.Payload, data, err = wire.DecodeValue(data)
	return data, err
}

// AppendTo appends m's wire encoding.
func (m BundleMsg) AppendTo(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, m.Round)
	return AppendRecords(buf, m.Set)
}

// DecodeFrom decodes m from data and returns the remainder.
func (m *BundleMsg) DecodeFrom(data []byte) (rest []byte, err error) {
	if m.Round, data, err = wire.Uvarint(data); err != nil {
		return nil, err
	}
	m.Set, data, err = DecodeRecords(data)
	return data, err
}

// AppendRecords appends a record batch (an A2 consensus value and the body
// of every bundle).
//
// Batches are delta-encoded: the first record's MessageID is written in
// full, every subsequent one as zig-zag varint deltas of (Origin, Seq)
// against its predecessor. Bundles are runs of per-origin sequences, so the
// deltas are almost always (0, +1) — two bytes where the full ID spent up
// to twelve.
func AppendRecords(buf []byte, rs []Record) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		if i == 0 {
			buf = r.AppendTo(buf)
			continue
		}
		prev := &rs[i-1]
		buf = wire.AppendVarint(buf, int64(r.ID.Origin)-int64(prev.ID.Origin))
		buf = wire.AppendVarint(buf, int64(r.ID.Seq-prev.ID.Seq))
		buf = wire.AppendValue(buf, r.Payload)
	}
	return buf
}

// DecodeRecords decodes a record batch and returns the remainder.
func DecodeRecords(data []byte) ([]Record, []byte, error) {
	n, data, err := wire.SliceLen(data)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, data, nil
	}
	rs := make([]Record, n)
	if data, err = rs[0].DecodeFrom(data); err != nil {
		return nil, nil, err
	}
	for i := 1; i < n; i++ {
		prev := &rs[i-1]
		r := &rs[i]
		var dv int64
		if dv, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		r.ID.Origin = types.ProcessID(int64(prev.ID.Origin) + dv)
		if dv, data, err = wire.Varint(data); err != nil {
			return nil, nil, err
		}
		r.ID.Seq = prev.ID.Seq + uint64(dv)
		if r.Payload, data, err = wire.DecodeValue(data); err != nil {
			return nil, nil, err
		}
	}
	return rs, data, nil
}
