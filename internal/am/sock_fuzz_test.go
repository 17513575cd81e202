package am

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// dataBody builds a frameData body the way sockTransport.send lays it out.
func dataBody(typ uint32, seq, gen, qid, sum uint64, lin []uint64, payload []byte) []byte {
	b := []byte{frameData}
	b = binary.LittleEndian.AppendUint32(b, typ)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint64(b, qid)
	b = binary.LittleEndian.AppendUint64(b, sum)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(lin)))
	for _, id := range lin {
		b = binary.LittleEndian.AppendUint64(b, id)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// FuzzDeliverFrame hands deliverFrame the bodies a peer could put inside a
// CRC-valid frame (frame.Read guarantees only that the kind byte is there).
// It must never panic or index past the body; what it accepts it must push
// as exactly one envelope whose fields are the ones the body spells, with
// the payload copied out of the frame buffer.
func FuzzDeliverFrame(f *testing.F) {
	u := newUniverse(config{Ranks: 2, Transport: SockTransport(SockOptions{})})
	Register(u, "a", func(r *Rank, m chatterPayload) {}).WithWire()
	Register(u, "b", func(r *Rank, m chatterPayload) {}).WithWire()
	tr := u.net.(*sockTransport)
	tr.u = u
	r := u.ranks[1]

	ack := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint32([]byte{frameAck}, 1), 7), 3)
	data := dataBody(1, 9, 2, 5, 0xfeed, []uint64{11, 12}, []byte("payload"))
	f.Add([]byte{frameHeartbeat})
	f.Add(ack)
	f.Add(data)
	f.Add(dataBody(0, 1, 1, 0, 0, nil, nil))
	f.Add(dataBody(2, 1, 1, 0, 0, nil, []byte("type out of range")))
	f.Add(data[:len(data)-1])                 // payload shorter than its length says
	f.Add(data[:30])                          // cut inside the fixed header
	f.Add(append(ack[:len(ack):len(ack)], 0)) // ack with a trailing byte
	f.Add([]byte{0})
	f.Add([]byte{frameData, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return
		}
		pristine := append([]byte(nil), body...)
		ok := tr.deliverFrame(r, 0, body)
		if !bytes.Equal(body, pristine) {
			t.Fatal("deliverFrame wrote into the frame buffer")
		}
		e, pushed := r.inbox.TryPop()
		if _, more := r.inbox.TryPop(); more {
			t.Fatal("one frame pushed more than one envelope")
		}
		if pushed != (ok && body[0] != frameHeartbeat) {
			t.Fatalf("ok=%v kind=%d but pushed=%v", ok, body[0], pushed)
		}
		if !pushed {
			return
		}
		if e.src != 0 || e.seq != binary.LittleEndian.Uint64(body[5:]) || e.gen != binary.LittleEndian.Uint64(body[13:]) {
			t.Fatalf("envelope %+v does not match body %x", e, body)
		}
		typ := int32(binary.LittleEndian.Uint32(body[1:]))
		switch d := e.data.(type) {
		case ackBody:
			if body[0] != frameAck || e.typeID != ackTypeID || d.typ != typ {
				t.Fatalf("ack envelope %+v from body %x", e, body)
			}
		case wirePayload:
			if body[0] != frameData || e.typeID != typ || len(e.lin) != int(binary.LittleEndian.Uint32(body[37:])) {
				t.Fatalf("data envelope %+v from body %x", e, body)
			}
			if !bytes.HasSuffix(body, d.b) || len(d.b) > 0 && &d.b[0] == &body[len(body)-len(d.b)] {
				t.Fatalf("payload %x is not a copy of the body's tail %x", d.b, body)
			}
			d.release()
		default:
			t.Fatalf("unexpected envelope data %T", e.data)
		}
	})
}
