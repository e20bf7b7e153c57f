package ncp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		Flags:     FlagReflected,
		KernelID:  7,
		WindowSeq: 1234,
		WindowLen: 8,
		Sender:    42,
		FromRole:  1,
		Wid:       99,
		FragIdx:   0,
		FragCount: 1,
	}
	user := []uint64{0xDEADBEEF, 7}
	payload := []byte{1, 2, 3, 4, 5}
	pkt, err := Marshal(h, user, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !IsNCP(pkt) {
		t.Fatal("marshaled packet must be recognized as NCP")
	}
	h2, user2, _, payload2, err := DecodeFull(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if *h2 != *h {
		t.Errorf("header mismatch:\n got %+v\nwant %+v", h2, h)
	}
	if len(user2) != 2 || user2[0] != 0xDEADBEEF || user2[1] != 7 {
		t.Errorf("user vals: %v", user2)
	}
	if !bytes.Equal(payload2, payload) {
		t.Errorf("payload: %v", payload2)
	}
}

func TestNonNCPRejected(t *testing.T) {
	if IsNCP([]byte{0x45, 0x00, 0x01, 0x02}) {
		t.Error("IPv4-looking bytes must not be NCP")
	}
	if _, _, _, _, err := DecodeFull(make([]byte, 100)); err != ErrNotNCP {
		t.Errorf("zeroed packet: err = %v, want ErrNotNCP", err)
	}
	if IsNCP([]byte{0x4E}) {
		t.Error("short packet must not be NCP")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	h := &Header{KernelID: 1, WindowSeq: 5, FragCount: 1}
	pkt, err := Marshal(h, nil, []byte{9, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, flip := range []int{4, 9, HeaderSize + 1} {
		bad := append([]byte(nil), pkt...)
		bad[flip] ^= 0x40
		if _, _, _, _, err := DecodeFull(bad); err == nil {
			t.Errorf("corruption at byte %d not detected", flip)
		}
	}
}

func TestTruncatedPacket(t *testing.T) {
	h := &Header{KernelID: 1, FragCount: 1}
	pkt, err := Marshal(h, []uint64{1, 2}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := DecodeFull(pkt[:len(pkt)-3]); err == nil {
		t.Error("truncation not detected")
	}
}

func TestBadVersion(t *testing.T) {
	h := &Header{KernelID: 1, FragCount: 1}
	pkt, _ := Marshal(h, nil, nil)
	pkt[2] = 99
	if _, _, _, _, err := DecodeFull(pkt); err == nil {
		t.Error("bad version not rejected")
	}
}

func TestTooManyUserFields(t *testing.T) {
	if _, err := Marshal(&Header{}, make([]uint64, MaxUserFields+1), nil); err == nil {
		t.Error("user field overflow not rejected")
	}
}

func TestPayloadEncoding(t *testing.T) {
	specs := []ParamSpec{
		{Elems: 4, Bytes: 4, Signed: true},  // int *data
		{Elems: 1, Bytes: 8, Signed: false}, // uint64_t key
		{Elems: 1, Bytes: 1, Signed: false}, // bool update
	}
	data := [][]uint64{
		{1, ^uint64(0) /* -1 */, 3, 0x7FFFFFFF},
		{0xDEADBEEFCAFEF00D},
		{1},
	}
	buf, err := EncodePayload(data, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 16+8+1 {
		t.Fatalf("payload size = %d, want 25", len(buf))
	}
	back, err := DecodePayload(buf, specs)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range data {
		for i := range data[pi] {
			if back[pi][i] != data[pi][i] {
				t.Errorf("param %d elem %d: %#x != %#x", pi, i, back[pi][i], data[pi][i])
			}
		}
	}
}

func TestSignExtensionOnDecode(t *testing.T) {
	specs := []ParamSpec{{Elems: 1, Bytes: 1, Signed: true}}
	buf, _ := EncodePayload([][]uint64{{0xFF}}, specs) // -1 as int8
	back, err := DecodePayload(buf, specs)
	if err != nil {
		t.Fatal(err)
	}
	if int64(back[0][0]) != -1 {
		t.Errorf("decoded %d, want -1", int64(back[0][0]))
	}
}

func TestPayloadShapeMismatch(t *testing.T) {
	specs := []ParamSpec{{Elems: 2, Bytes: 4}}
	if _, err := EncodePayload([][]uint64{{1}}, specs); err == nil {
		t.Error("element count mismatch not rejected")
	}
	if _, err := DecodePayload([]byte{1, 2, 3}, specs); err == nil {
		t.Error("payload size mismatch not rejected")
	}
}

// Property: marshal→decode is the identity for arbitrary headers, user
// values, and payloads.
func TestMarshalDecodeProperty(t *testing.T) {
	f := func(kid, seq, sender, from, wid uint32, wlen uint16, flags uint8, user []uint64, payload []byte) bool {
		if len(user) > MaxUserFields {
			user = user[:MaxUserFields]
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		// Unknown flag bits are rejected by design; FlagTrace changes the
		// wire layout and is round-tripped by its own tests.
		flags &= KnownFlags &^ FlagTrace
		h := &Header{
			Flags: flags, KernelID: kid, WindowSeq: seq, WindowLen: wlen,
			Sender: sender, FromRole: from, Wid: wid, FragCount: 1,
		}
		pkt, err := Marshal(h, user, payload)
		if err != nil {
			return false
		}
		h2, u2, _, p2, err := DecodeFull(pkt)
		if err != nil {
			return false
		}
		if *h2 != *h || !bytes.Equal(p2, payload) || len(u2) != len(user) {
			return false
		}
		for i := range user {
			if u2[i] != user[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: payload encode→decode is the identity for arbitrary shapes.
func TestPayloadRoundTripProperty(t *testing.T) {
	f := func(raw []uint64, shape []uint8) bool {
		if len(shape) == 0 {
			shape = []uint8{4}
		}
		if len(shape) > 6 {
			shape = shape[:6]
		}
		var specs []ParamSpec
		need := 0
		sizes := []int{1, 2, 4, 8}
		for _, s := range shape {
			elems := int(s%4) + 1
			spec := ParamSpec{Elems: elems, Bytes: sizes[int(s/4)%4], Signed: s%2 == 0}
			specs = append(specs, spec)
			need += elems
		}
		for len(raw) < need {
			raw = append(raw, uint64(len(raw))*0x9E3779B97F4A7C15)
		}
		data := make([][]uint64, len(specs))
		off := 0
		for i, sp := range specs {
			data[i] = make([]uint64, sp.Elems)
			for e := 0; e < sp.Elems; e++ {
				v := raw[off]
				off++
				// Canonicalize to the element width the way the runtime does.
				bits := sp.Bytes * 8
				if bits < 64 {
					v &= (uint64(1) << bits) - 1
					if sp.Signed && v&(uint64(1)<<(bits-1)) != 0 {
						v |= ^uint64(0) << bits
					}
				}
				data[i][e] = v
			}
		}
		buf, err := EncodePayload(data, specs)
		if err != nil {
			return false
		}
		back, err := DecodePayload(buf, specs)
		if err != nil {
			return false
		}
		for i := range data {
			for e := range data[i] {
				if back[i][e] != data[i][e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPayloadSize(t *testing.T) {
	specs := []ParamSpec{{Elems: 8, Bytes: 4}, {Elems: 1, Bytes: 8}, {Elems: 1, Bytes: 1}}
	if got := PayloadSize(specs); got != 41 {
		t.Errorf("PayloadSize = %d, want 41", got)
	}
}
