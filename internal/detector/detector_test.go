package detector

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/event"
)

func TestDefineRejectsUndeclaredEvent(t *testing.T) {
	d, _ := newTestDetector(t)
	if _, err := d.DefineString("X", "A ; Nope", Recent); err == nil {
		t.Fatalf("undeclared constituent must be rejected")
	}
}

func TestDefineRejectsDuplicates(t *testing.T) {
	d, _ := newTestDetector(t)
	d.MustDefine("X", "A ; B", Recent)
	if _, err := d.DefineString("X", "A ; B", Recent); !errors.Is(err, ErrDuplicateDefinition) {
		t.Fatalf("duplicate definition error = %v", err)
	}
}

func TestDefineRejectsEmptyNameAndBadSyntax(t *testing.T) {
	d, _ := newTestDetector(t)
	if _, err := d.DefineString("", "A ; B", Recent); err == nil {
		t.Fatalf("empty name must be rejected")
	}
	if _, err := d.DefineString("X", "A ;;", Recent); err == nil {
		t.Fatalf("syntax error must surface")
	}
}

func TestCompositeReuseAcrossDefinitions(t *testing.T) {
	// A named composite feeds another definition, as Sentinel allows.
	d, _ := newTestDetector(t)
	inner := &collector{}
	outer := &collector{}
	d.MustDefine("AB", "A ; B", Chronicle)
	d.Subscribe("AB", inner.handler)
	d.MustDefine("ABC", "AB ; C", Chronicle)
	d.Subscribe("ABC", outer.handler)

	d.Publish(occAt("s1", 10, "A"))
	d.Publish(occAt("s1", 20, "B"))
	d.Publish(occAt("s1", 30, "C"))

	inner.assertSigs(t, "AB[A@10 B@20]")
	outer.assertSigs(t, "ABC[A@10 B@20 C@30]")
}

func TestSelfReferenceRejected(t *testing.T) {
	d, _ := newTestDetector(t)
	// "X" is not declared when X is being defined, so a self-reference
	// fails validation rather than looping.
	if _, err := d.DefineString("X", "A ; X", Recent); err == nil {
		t.Fatalf("self-referential definition must be rejected")
	}
}

func TestSamePrimitiveTwiceInExpression(t *testing.T) {
	d, _ := newTestDetector(t)
	c := &collector{}
	d.MustDefine("X", "A ; A", Chronicle)
	d.Subscribe("X", c.handler)
	d.Publish(occAt("s1", 10, "A"))
	d.Publish(occAt("s1", 20, "A"))
	// The first A initiates; the second A both terminates against the
	// first and initiates for a future one.
	c.assertSigs(t, "X[A@10 A@20]")
	d.Publish(occAt("s1", 30, "A"))
	if len(c.got) != 2 || c.sigs()[1] != "X[A@20 A@30]" {
		t.Fatalf("chained A;A detections = %v", c.sigs())
	}
}

func TestSubscribeToPrimitive(t *testing.T) {
	d, _ := newTestDetector(t)
	c := &collector{}
	d.Subscribe("A", c.handler)
	d.Publish(occAt("s1", 10, "A"))
	c.assertSigs(t, "A[A@10]")
}

func TestMultipleSubscribersOrdered(t *testing.T) {
	d, _ := newTestDetector(t)
	var order []string
	d.MustDefine("X", "A OR B", Recent)
	d.Subscribe("X", func(*event.Occurrence) { order = append(order, "first") })
	d.Subscribe("X", func(*event.Occurrence) { order = append(order, "second") })
	d.Publish(occAt("s1", 10, "A"))
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("subscriber order = %v", order)
	}
}

func TestDefinitionsListing(t *testing.T) {
	d, _ := newTestDetector(t)
	d.MustDefine("X", "A ; B", Recent)
	d.MustDefine("Y", "A AND B", Chronicle)
	defs := d.Definitions()
	if len(defs) != 2 {
		t.Fatalf("Definitions = %d, want 2", len(defs))
	}
	for _, def := range defs {
		if def.Name != "X" && def.Name != "Y" {
			t.Errorf("unexpected definition %q", def.Name)
		}
		if def.Expr == nil {
			t.Errorf("definition %q lost its expression", def.Name)
		}
	}
}

func TestNestedExpressionInline(t *testing.T) {
	// Operators nest without named intermediates.
	c := run(t, "(A ; B) AND C", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 20, "C"), occAt("s1", 30, "B"))
	// A;B completes at B@30, then pairs with buffered C@20.
	c.assertSigs(t, "X[A@10 B@30 C@20]")
}

func TestDeepNesting(t *testing.T) {
	c := run(t, "((A ; B) ; C) ; D", Chronicle,
		occAt("s1", 10, "A"), occAt("s1", 20, "B"), occAt("s1", 30, "C"), occAt("s1", 40, "D"))
	c.assertSigs(t, "X[A@10 B@20 C@30 D@40]")
}

func TestOrOfSeq(t *testing.T) {
	c := run(t, "(A ; B) OR (C ; D)", Chronicle,
		occAt("s1", 10, "C"), occAt("s1", 20, "A"), occAt("s1", 30, "D"), occAt("s1", 40, "B"))
	c.assertSigs(t, "X[C@10 D@30]", "X[A@20 B@40]")
}

func TestMustDefinePanics(t *testing.T) {
	d, _ := newTestDetector(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("MustDefine of bad expression must panic")
		}
	}()
	d.MustDefine("X", "A ;;", Recent)
}

func TestSiteAndRegistryAccessors(t *testing.T) {
	d, _ := newTestDetector(t)
	if d.Site() != "s1" {
		t.Errorf("Site = %q", d.Site())
	}
	if d.Registry() == nil || !d.Registry().Has("A") {
		t.Errorf("Registry accessor broken")
	}
}

func TestDefineDeclaresCompositeType(t *testing.T) {
	d, _ := newTestDetector(t)
	d.MustDefine("X", "A ; B", Recent)
	typ, err := d.Registry().Lookup("X")
	if err != nil || typ.Class != event.Composite {
		t.Fatalf("definition must declare a composite type, got %v/%v", typ, err)
	}
}

func TestContextStrings(t *testing.T) {
	want := map[Context]string{
		Unrestricted: "unrestricted", Recent: "recent", Chronicle: "chronicle",
		Continuous: "continuous", Cumulative: "cumulative",
	}
	for ctx, s := range want {
		if ctx.String() != s {
			t.Errorf("Context %d String = %q, want %q", int(ctx), ctx.String(), s)
		}
	}
	if !strings.Contains(Context(42).String(), "42") {
		t.Errorf("unknown context String should include the value")
	}
	if len(Contexts()) != 5 {
		t.Errorf("Contexts() = %d entries, want 5", len(Contexts()))
	}
}

// Parameters flow through composites via constituents.
func TestParameterPropagation(t *testing.T) {
	d, _ := newTestDetector(t)
	var got []int64
	d.MustDefine("X", "A ; B", Chronicle)
	d.Subscribe("X", func(o *event.Occurrence) {
		for _, p := range o.Flatten() {
			got = append(got, p.Params["local"].(int64))
		}
	})
	d.Publish(occAt("s1", 10, "A"))
	d.Publish(occAt("s1", 20, "B"))
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("parameters = %v, want [10 20]", got)
	}
}
