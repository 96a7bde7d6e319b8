package wiregood

import "testing"

func FuzzGoodParse(f *testing.F) {
	f.Add([]byte("seed"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var g Good
		if err := g.ParseWire(b); err != nil {
			t.Skip()
		}
		if err := g.ParseXML(g.AppendXML(nil)); err != nil {
			t.Fatal(err)
		}
	})
}
