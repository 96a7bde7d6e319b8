package plaxton

import (
	"testing"

	"github.com/gloss/active/internal/ids"
	"github.com/gloss/active/internal/wire"
)

// TestPlaxtonXMLBytesUnchanged: the overlay's ID fields are ids.ID, and
// their XML form is the hex text the string fields carried before, byte
// for byte, so XML-codec nodes of either form read each other. The
// golden frames are those string fields' encodings. Each frame also
// decodes back to its message.
func TestPlaxtonXMLBytesUnchanged(t *testing.T) {
	reg := wire.NewRegistry()
	RegisterMessages(reg)
	a, b, c := ids.FromString("px-a"), ids.FromString("px-b"), ids.FromString("px-c")
	const env = `<env from="6f86d9c816be07f3603bc05c77f651f6" to="767139102b0cfcc96175633af6924898" kind="`
	for _, tc := range []struct {
		msg  wire.Message
		want string
	}{
		{&JoinMsg{Joiner: a, Hop: 2},
			env + `plaxton.join" corr="3"><JoinMsg joiner="6f86d9c816be07f3603bc05c77f651f6" hop="2"></JoinMsg></env>`},
		{&StateMsg{From: b, Hop: 1, Done: true, Leaves: []ids.ID{a, c}, Table: []ids.ID{c}},
			env + `plaxton.state" corr="3"><StateMsg from="767139102b0cfcc96175633af6924898" hop="1" done="true">` +
				`<leaf>6f86d9c816be07f3603bc05c77f651f6</leaf><leaf>37a898b9c3caf1898f473d6525d2d7a4</leaf>` +
				`<entry>37a898b9c3caf1898f473d6525d2d7a4</entry></StateMsg></env>`},
		{&StateMsg{From: b},
			env + `plaxton.state" corr="3"><StateMsg from="767139102b0cfcc96175633af6924898" hop="0" done="false"></StateMsg></env>`},
		{&AnnounceMsg{Node: c},
			env + `plaxton.announce" corr="3"><AnnounceMsg node="37a898b9c3caf1898f473d6525d2d7a4"></AnnounceMsg></env>`},
		{&LeafReplyMsg{Leaves: []ids.ID{b, c}},
			env + `plaxton.leafreply" corr="3"><LeafReplyMsg>` +
				`<leaf>767139102b0cfcc96175633af6924898</leaf><leaf>37a898b9c3caf1898f473d6525d2d7a4</leaf></LeafReplyMsg></env>`},
		{&LeafReplyMsg{},
			env + `plaxton.leafreply" corr="3"><LeafReplyMsg></LeafReplyMsg></env>`},
	} {
		frame, err := reg.Encode(&wire.Envelope{From: a, To: b, CorrID: 3, Msg: tc.msg})
		if err != nil {
			t.Fatalf("%s: %v", tc.msg.Kind(), err)
		}
		if string(frame) != tc.want {
			t.Fatalf("%s encodes as\n%s\nwant\n%s", tc.msg.Kind(), frame, tc.want)
		}
		back, err := reg.Decode(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.msg.Kind(), err)
		}
		again, err := reg.Encode(back)
		if err != nil || string(again) != tc.want {
			t.Fatalf("%s: decoded frame re-encodes as\n%s (%v)\nwant\n%s", tc.msg.Kind(), again, err, tc.want)
		}
	}
}
