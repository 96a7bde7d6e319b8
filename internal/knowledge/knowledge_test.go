package knowledge

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/gloss/active/internal/netapi"
)

func hours(h int) time.Duration { return time.Duration(h) * time.Hour }

func TestKBQueryPatterns(t *testing.T) {
	kb := NewKB()
	kb.AddSPO("bob", "likes", "ice cream")
	kb.AddSPO("bob", "nationality", "scottish")
	kb.AddSPO("bob", "knows", "anna")
	kb.AddSPO("anna", "likes", "coffee")

	if !kb.Ask("bob", "likes", "ice cream", -1) {
		t.Errorf("exact match failed")
	}
	if kb.Ask("bob", "likes", "coffee", -1) {
		t.Errorf("false positive")
	}
	if got := len(kb.Query("bob", "", "", -1)); got != 3 {
		t.Errorf("subject wildcard: %d facts, want 3", got)
	}
	if got := len(kb.Query("", "likes", "", -1)); got != 2 {
		t.Errorf("predicate query across subjects: %d, want 2", got)
	}
	if o, ok := kb.One("bob", "nationality", -1); !ok || o != "scottish" {
		t.Errorf("One = %q/%v", o, ok)
	}
	if _, ok := kb.One("bob", "dislikes", -1); ok {
		t.Errorf("One on absent predicate should fail")
	}
}

func TestKBValidityIntervals(t *testing.T) {
	kb := NewKB()
	// Bob is on holiday from day 20 to day 27 (§1.1).
	kb.Add(Fact{S: "bob", P: "on-holiday", O: "true",
		From: 20 * 24 * time.Hour, To: 27 * 24 * time.Hour})
	if kb.Ask("bob", "on-holiday", "true", 19*24*time.Hour) {
		t.Errorf("holiday active too early")
	}
	if !kb.Ask("bob", "on-holiday", "true", 25*24*time.Hour) {
		t.Errorf("holiday inactive mid-interval")
	}
	if kb.Ask("bob", "on-holiday", "true", 27*24*time.Hour) {
		t.Errorf("holiday active at exclusive end")
	}
	// t = -1 ignores validity.
	if !kb.Ask("bob", "on-holiday", "true", -1) {
		t.Errorf("validity not ignored for t<0")
	}
}

func TestKBRemoveAndMerge(t *testing.T) {
	kb := NewKB()
	kb.AddSPO("bob", "likes", "ice cream")
	kb.AddSPO("bob", "likes", "chips")
	if n := kb.Remove("bob", "likes", "chips"); n != 1 {
		t.Fatalf("removed %d", n)
	}
	if kb.Ask("bob", "likes", "chips", -1) {
		t.Fatalf("fact survived removal")
	}
	kb.MergeSubject("bob", []Fact{{S: "bob", P: "likes", O: "haggis"}})
	if kb.Ask("bob", "likes", "ice cream", -1) {
		t.Fatalf("merge did not replace old facts")
	}
	if !kb.Ask("bob", "likes", "haggis", -1) {
		t.Fatalf("merged fact missing")
	}
	if kb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", kb.Len())
	}
}

func janettas() Place {
	return Place{
		Name: "janettas", Region: "st-andrews", X: 10.2, Y: 4.1,
		Hours: Span{Open: hours(9), Close: hours(17)},
		Sells: []string{"ice cream", "coffee"},
		Tags:  []string{"cafe"},
	}
}

func TestPlaceOpeningHours(t *testing.T) {
	p := janettas()
	if p.OpenAt(hours(8)) {
		t.Errorf("open before 9")
	}
	if !p.OpenAt(hours(12)) {
		t.Errorf("closed at noon")
	}
	if p.OpenAt(hours(17)) {
		t.Errorf("open at close")
	}
	// Second day, 16:45 — the paper's scenario time.
	at := 24*time.Hour + 16*time.Hour + 45*time.Minute
	if !p.OpenAt(at) {
		t.Errorf("closed at 16:45 on day 2")
	}
	if got := p.OpenFor(at); got != 15*time.Minute {
		t.Errorf("OpenFor = %v, want 15m", got)
	}
	// Overnight span.
	bar := Place{Name: "bar", Hours: Span{Open: hours(22), Close: hours(2)}}
	if !bar.OpenAt(hours(23)) || !bar.OpenAt(hours(1)) || bar.OpenAt(hours(12)) {
		t.Errorf("overnight hours wrong")
	}
	if got := bar.OpenFor(hours(23)); got != 3*time.Hour {
		t.Errorf("overnight OpenFor = %v", got)
	}
	// Always-open.
	kiosk := Place{Name: "kiosk"}
	if !kiosk.OpenAt(hours(3)) || kiosk.OpenFor(hours(3)) != 24*time.Hour {
		t.Errorf("always-open wrong")
	}
}

func TestGISSpatialQueries(t *testing.T) {
	g := NewGIS()
	if err := g.AddPlace(janettas()); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPlace(Place{Name: "far-shop", X: 50, Y: 50, Sells: []string{"ice cream"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPlace(Place{Name: "near-pub", X: 10.4, Y: 4.1, Tags: []string{"pub"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPlace(janettas()); err == nil {
		t.Fatal("duplicate place accepted")
	}

	near := netapi.Coord{X: 10.0, Y: 4.0}
	within := g.Within(near, 1.0)
	if len(within) != 2 {
		t.Fatalf("Within returned %d places, want 2", len(within))
	}
	if within[0].Name != "janettas" {
		t.Fatalf("nearest-first ordering broken: %s", within[0].Name)
	}
	if p := g.NearestSelling(near, "ice cream", 2.0); p == nil || p.Name != "janettas" {
		t.Fatalf("NearestSelling = %v", p)
	}
	if p := g.NearestSelling(near, "ice cream", 0.05); p != nil {
		t.Fatalf("radius not respected")
	}
	if p := g.NearestTagged(near, "pub", 2.0); p == nil || p.Name != "near-pub" {
		t.Fatalf("NearestTagged = %v", p)
	}
	if p := g.NearestSelling(netapi.Coord{X: 50, Y: 50}, "ice cream", 1); p == nil || p.Name != "far-shop" {
		t.Fatalf("distant cell lookup failed")
	}
}

// The subject and predicate-object indexes must agree with a plain list
// of facts through any sequence of Add, Remove and MergeSubject.
func TestKBIndexesMatchBruteForce(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	preds := []string{"knows", "likes"}
	pick := func(rng *rand.Rand, from []string) string { return from[rng.Intn(len(from))] }
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kb := NewKB()
		var model []Fact
		fact := func(s string) Fact {
			f := Fact{S: s, P: pick(rng, preds), O: pick(rng, names)}
			if rng.Intn(3) == 0 {
				f.From, f.To = hours(rng.Intn(5)), hours(5+rng.Intn(5))
			}
			return f
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(6) {
			case 0:
				s, p, o := pick(rng, names), pick(rng, preds), pick(rng, names)
				kept := model[:0]
				for _, f := range model {
					if f.S != s || f.P != p || f.O != o {
						kept = append(kept, f)
					}
				}
				if got := kb.Remove(s, p, o); got != len(model)-len(kept) {
					t.Fatalf("seed %d step %d: Remove = %d, want %d", seed, step, got, len(model)-len(kept))
				}
				model = kept
			case 1:
				s := pick(rng, names)
				var set []Fact
				for i, n := 0, rng.Intn(4); i < n; i++ {
					set = append(set, fact(s))
				}
				kept := model[:0]
				for _, f := range model {
					if f.S != s {
						kept = append(kept, f)
					}
				}
				model = append(kept, set...)
				kb.MergeSubject(s, set)
			default:
				f := fact(pick(rng, names))
				model = append(model, f)
				kb.Add(f) // duplicates included
			}
			if kb.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, kb.Len(), len(model))
			}
			at := hours(rng.Intn(10))
			if rng.Intn(4) == 0 {
				at = -1
			}
			s, p, o := pick(rng, names), pick(rng, preds), pick(rng, names)
			var objects, subjects []string
			first, any := "", false
			for _, f := range model {
				if f.S == s && f.P == p && f.ValidAt(at) {
					if len(objects) == 0 {
						first = f.O
					}
					objects = append(objects, f.O)
				}
				if f.P == p && f.O == o && f.ValidAt(at) {
					subjects = append(subjects, f.S)
					any = any || f.S == s
				}
			}
			sort.Strings(objects)
			sort.Strings(subjects)
			gotObjects := kb.AppendObjects(nil, s, p, at)
			gotSubjects := kb.AppendSubjects(nil, p, o, at)
			sort.Strings(gotObjects)
			sort.Strings(gotSubjects)
			if !reflect.DeepEqual(gotObjects, objects) {
				t.Fatalf("seed %d step %d: objects of (%s, %s, ·) at %v = %v, want %v", seed, step, s, p, at, gotObjects, objects)
			}
			if !reflect.DeepEqual(gotSubjects, subjects) {
				t.Fatalf("seed %d step %d: subjects of (·, %s, %s) at %v = %v, want %v", seed, step, p, o, at, gotSubjects, subjects)
			}
			if got, ok := kb.One(s, p, at); ok != (len(objects) > 0) || got != first {
				t.Fatalf("seed %d step %d: One(%s, %s) = %q/%v, want %q", seed, step, s, p, got, ok, first)
			}
			if kb.Ask(s, p, o, at) != any || kb.Ask("", p, o, at) != (len(subjects) > 0) || kb.Ask(s, p, "", at) != (len(objects) > 0) {
				t.Fatalf("seed %d step %d: Ask disagrees with the fact list for (%s, %s, %s) at %v", seed, step, s, p, o, at)
			}
		}
	}
}

// Ask and One answer from the indexes without building a result set.
func TestKBAskAndOneDoNotAllocate(t *testing.T) {
	kb := NewKB()
	for _, s := range []string{"bob", "anna", "carl"} {
		kb.AddSPO(s, "likes", "ice cream")
		kb.AddSPO(s, "knows", "dora")
		kb.Add(Fact{S: s, P: "on-holiday", O: "true", From: hours(1), To: hours(9)})
	}
	var objects []string
	allocs := testing.AllocsPerRun(200, func() {
		if !kb.Ask("bob", "knows", "dora", hours(2)) || kb.Ask("bob", "knows", "emil", hours(2)) ||
			!kb.Ask("", "knows", "dora", -1) || !kb.Ask("", "on-holiday", "", hours(2)) || kb.Ask("", "on-holiday", "", hours(9)) {
			t.Fatal("Ask is wrong")
		}
		if o, ok := kb.One("anna", "likes", hours(2)); !ok || o != "ice cream" {
			t.Fatal("One is wrong")
		}
		objects = kb.AppendObjects(objects[:0], "carl", "", hours(2))
		objects = kb.AppendSubjects(objects, "knows", "dora", hours(2))
		if len(objects) != 6 {
			t.Fatalf("objects and subjects: %v", objects)
		}
	})
	if allocs != 0 {
		t.Fatalf("the read path allocates %v times per round of questions", allocs)
	}
}
