package tcp_test

// The transport carries exactly one encoding: every protocol message has a
// registered wire codec, so none of them may fall back to the KindGob blob
// (which only application payloads of codec-less types use). Nothing in the
// repository gob-registers protocol types, so a message that fell back
// would fail to encode at all.

import (
	"reflect"
	"testing"

	"wanamcast/internal/abcast"
	"wanamcast/internal/amcast"
	"wanamcast/internal/baseline"
	"wanamcast/internal/catchup"
	"wanamcast/internal/consensus"
	"wanamcast/internal/rmcast"
	"wanamcast/internal/svc"
	"wanamcast/internal/transport/tcp"
	"wanamcast/internal/types"
	"wanamcast/internal/wire"
)

type wireCase struct {
	name string
	v    any
}

// TestNoProtocolMessageFallsBackToGob covers every message type the
// transport once gob-registered for its gob stream, plus the service and
// read-tier kinds (54–58). types.MessageID, types.GroupSet,
// amcast.Descriptor and abcast.Record never travel as a frame body or an
// interface value of their own: they are struct fields of the messages
// below, encoded by those messages' codecs, so they are covered through
// their carriers.
func TestNoProtocolMessageFallsBackToGob(t *testing.T) {
	id := types.MessageID{Origin: 3, Seq: 17}
	dest := types.NewGroupSet(0, 2)
	desc := amcast.Descriptor{ID: id, Dest: dest, Payload: "p", TS: 9, Stage: amcast.Stage1}
	descs := []amcast.Descriptor{desc, {ID: types.MessageID{Origin: 3, Seq: 18}, Dest: dest, Payload: int64(5), TS: 10}}
	rec := abcast.Record{ID: id, Payload: []byte("r")}
	recs := []abcast.Record{rec, {ID: types.MessageID{Origin: 4, Seq: 1}, Payload: "s"}}
	msg := rmcast.Message{ID: id, Dest: dest, Payload: "m"}

	cases := []wireCase{
		{"types.MessageID+GroupSet (in amcast.TSMsg)", amcast.TSMsg{Desc: desc}},
		{"consensus.ForwardMsg", consensus.ForwardMsg{Instance: 1, Value: descs}},
		{"consensus.PrepareMsg", consensus.PrepareMsg{Instance: 2, Ballot: 3}},
		{"consensus.PromiseMsg", consensus.PromiseMsg{Instance: 2, Ballot: 3, VBallot: 1, VValue: recs}},
		{"consensus.AcceptMsg", consensus.AcceptMsg{Instance: 4, Ballot: 5, Value: descs}},
		{"consensus.AcceptedMsg", consensus.AcceptedMsg{Instance: 4, Ballot: 5}},
		{"consensus.DecideMsg", consensus.DecideMsg{Instance: 6, Value: recs}},
		{"consensus.LearnMsg", consensus.LearnMsg{Instance: 7}},
		{"rmcast.DataMsg", rmcast.DataMsg{M: msg}},
		{"rmcast.Message", msg},
		{"amcast.TSMsg", amcast.TSMsg{Desc: desc}},
		{"[]amcast.Descriptor (carries amcast.Descriptor)", descs},
		{"catchup.Req", catchup.Req{From: 12}},
		{"catchup.Resp (amcast)", catchup.Resp[amcast.DeliverRec, amcast.SyncTail]{
			Base:    2,
			Entries: []amcast.DeliverRec{{ID: id, Dest: dest, TS: 9, Payload: "d"}},
			Next:    3,
			Tail: &amcast.SyncTail{K: 5, Applied: 4, Pending: descs,
				Props: []amcast.PropEntry{{ID: id, Group: 2, TS: 9}}},
		}},
		{"abcast.BundleMsg", abcast.BundleMsg{Round: 8, Set: recs}},
		{"[]abcast.Record (carries abcast.Record)", recs},
		{"catchup.Resp (abcast)", catchup.Resp[[]abcast.Record, abcast.SyncTail]{
			Base:    1,
			Entries: [][]abcast.Record{recs},
			Next:    2, Busy: true,
			Tail: &abcast.SyncTail{Barrier: 1,
				Bundles: []abcast.GroupBundle{{Round: 2, Group: 1, Set: recs}}},
		}},
		{"baseline.SkeenData", baseline.SkeenData{M: msg}},
		{"baseline.SkeenProp", baseline.SkeenProp{ID: id, TS: 11}},
		{"svc.Command", svc.Command{Session: 1, Seq: 2, Op: []byte("put k v")}},
		{"svc.Request", svc.Request{Session: 1, Seq: 2, Dest: dest, Op: []byte("get k")}},
		{"svc.Reply", svc.Reply{Session: 1, Seq: 2, OK: true, Result: []byte("v"), Order: 7}},
		{"svc.Redirect", svc.Redirect{Session: 1, Seq: 2, Groups: dest, Addrs: []string{"127.0.0.1:1"}}},
		{"svc.ReadReq", svc.ReadReq{Session: 1, Seq: 3, Group: 2, Mode: 1, MinWatermark: 5, Op: []byte("get k")}},
		{"svc.ReadResp", svc.ReadResp{Session: 1, Seq: 3, OK: true, Result: []byte("v"), Watermark: 6}},
		{"svc.CertReq", svc.CertReq{Session: 1, Seq: 2}},
		{"svc.CertShare", svc.CertShare{Session: 1, Seq: 2, OK: true, ID: id, Group: 2, Order: 7, Hash: []byte{1, 2}, Proc: 4, MAC: []byte{3}}},
	}
	fd := tcp.FDBodies()
	cases = append(cases, wireCase{"tcp heartbeatMsg", fd[0]}, wireCase{"tcp leaseGrantMsg", fd[1]})

	var (
		bat     wire.Batch
		inflate []byte
	)
	for _, c := range cases {
		k := wire.KindOf(c.v)
		if k == wire.KindGob || k == wire.KindInvalid {
			t.Errorf("%s: KindOf = %d, want a registered codec kind", c.name, k)
			continue
		}
		b, err := wire.AppendFrame(nil, 5, "proto", 77, c.v)
		if err != nil {
			t.Errorf("%s: AppendFrame: %v", c.name, err)
			continue
		}
		f, kind, isBatch, err := wire.DecodeFrameOrBatch(b[4:], &bat, &inflate)
		if err != nil || isBatch {
			t.Errorf("%s: DecodeFrameOrBatch: isBatch=%v err=%v", c.name, isBatch, err)
			continue
		}
		if kind != k {
			t.Errorf("%s: decoded kind %d, encoded as %d", c.name, kind, k)
		}
		if f.From != 5 || f.Proto != "proto" || f.TS != 77 {
			t.Errorf("%s: frame header %v/%q/%d did not round-trip", c.name, f.From, f.Proto, f.TS)
		}
		if !reflect.DeepEqual(f.Body, c.v) {
			t.Errorf("%s: body round-trip mismatch:\n got  %#v\n want %#v", c.name, f.Body, c.v)
		}
	}
}
