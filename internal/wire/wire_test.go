package wire

import (
	"strings"
	"testing"

	"github.com/gloss/active/internal/ids"
)

type testMsg struct {
	Name  string `xml:"name"`
	Count int    `xml:"count"`
	Data  Bytes  `xml:"data,omitempty"`
}

func (testMsg) Kind() string { return "test.msg" }

type otherMsg struct {
	V string `xml:"v"`
}

func (otherMsg) Kind() string { return "test.other" }

func testRegistry() *Registry {
	r := NewRegistry()
	r.Register(&testMsg{})
	r.Register(&otherMsg{})
	return r
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := testRegistry()
	env := &Envelope{
		From:   ids.FromString("alice"),
		To:     ids.FromString("bob"),
		CorrID: 42,
		Msg:    &testMsg{Name: "hello <&> world", Count: -3, Data: []byte{0, 1, 2, 255}},
	}
	b, err := r.Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := r.Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.From != env.From || got.To != env.To || got.CorrID != env.CorrID || got.IsReply != env.IsReply {
		t.Fatalf("envelope header mismatch: %+v vs %+v", got, env)
	}
	m, ok := got.Msg.(*testMsg)
	if !ok {
		t.Fatalf("decoded message type %T", got.Msg)
	}
	if m.Name != "hello <&> world" || m.Count != -3 || string(m.Data) != string([]byte{0, 1, 2, 255}) {
		t.Fatalf("decoded message mismatch: %+v", m)
	}
}

func TestDecodeReplyWithError(t *testing.T) {
	r := testRegistry()
	env := &Envelope{
		From:    ids.FromString("a"),
		To:      ids.FromString("b"),
		CorrID:  7,
		IsReply: true,
		Err:     "object not found",
	}
	b, err := r.Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := r.Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.IsReply || got.Err != "object not found" || got.Msg != nil {
		t.Fatalf("decoded: %+v", got)
	}
}

func TestUnknownKind(t *testing.T) {
	r := testRegistry()
	env := &Envelope{From: ids.FromString("a"), To: ids.FromString("b"), Msg: &testMsg{}}
	b, err := r.Encode(env)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	empty := NewRegistry()
	if _, err := empty.Decode(b); err == nil {
		t.Fatalf("Decode with unknown kind: want error")
	}
}

func TestDuplicateRegistrationSameTypeOK(t *testing.T) {
	r := NewRegistry()
	r.Register(&testMsg{})
	r.Register(&testMsg{}) // idempotent
	defer func() {
		if recover() == nil {
			t.Fatalf("conflicting registration should panic")
		}
	}()
	type clash struct{ otherMsg }
	_ = clash{}
	// Register a different type under the same kind.
	r.Register(&conflictMsg{})
}

type conflictMsg struct{}

func (conflictMsg) Kind() string { return "test.msg" }

func TestKindsSorted(t *testing.T) {
	r := testRegistry()
	kinds := r.Kinds()
	if len(kinds) != 2 || kinds[0] != "test.msg" || kinds[1] != "test.other" {
		t.Fatalf("Kinds = %v", kinds)
	}
}

func TestEnvelopeIsXML(t *testing.T) {
	r := testRegistry()
	b, err := r.Encode(&Envelope{From: ids.FromString("a"), To: ids.FromString("b"), Msg: &testMsg{Name: "x"}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	s := string(b)
	if !strings.HasPrefix(s, "<env ") || !strings.Contains(s, `kind="test.msg"`) {
		t.Fatalf("not the expected XML envelope: %s", s)
	}
}

func TestSize(t *testing.T) {
	r := testRegistry()
	small := &Envelope{From: ids.FromString("a"), To: ids.FromString("b"), Msg: &testMsg{}}
	big := &Envelope{From: ids.FromString("a"), To: ids.FromString("b"), Msg: &testMsg{Data: make([]byte, 10000)}}
	ss, err := r.Size(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.Size(big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sb <= ss {
		t.Fatalf("size of big (%d) should exceed small (%d)", sb, ss)
	}
}
