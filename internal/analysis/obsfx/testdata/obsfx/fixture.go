// Package fixture exercises the obsfx analyzer's stage-context rules:
// fmt printing, the log package, builtin print/println and direct
// os.Stdout/os.Stderr references are flagged inside stage methods and
// the designated stage helpers; pure formatting, tracer emission from
// crank stages and the same calls outside stage context are not.
package fixture

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/obs"
)

type ingestStage struct{ tr *obs.Tracer }

func (st *ingestStage) raise() {
	fmt.Println("raised") // want `obsfx: fmt\.Println in stage context`
	log.Printf("raised")  // want `obsfx: log\.Printf in stage context`
	println("raised")     // want `obsfx: builtin println in stage context`
	_ = fmt.Sprintf("stamp %d", 1)
	_ = fmt.Errorf("pure formatting is fine")
	st.tr.Emit(obs.SpanEvent{Kind: obs.KindRaise}) // crank stage: sinks are the sanctioned effect
}

type transportStage struct{}

func (st *transportStage) Tick() io.Writer {
	w := io.Writer(os.Stderr) // want `obsfx: os\.Stderr referenced in stage context`
	fmt.Fprintln(w, "tick")   // want `obsfx: fmt\.Fprintln in stage context`
	return os.Stdout          // want `obsfx: os\.Stdout referenced in stage context`
}

type publishStage struct{ tr *obs.Tracer }

func (st *publishStage) Tick() {
	st.tr.Emit(obs.SpanEvent{Kind: obs.KindPublish}) // publish runs on the crank: clean
}

// forwardComposite is stage context by name, receiver or not.
func forwardComposite() {
	log.Println("forwarded") // want `obsfx: log\.Println in stage context`
}

// stageNote is the hook System feeds the pipeline driver: stage context.
func stageNote(tr *obs.Tracer) {
	tr.Emit(obs.SpanEvent{Kind: obs.KindNote})
	print("note") // want `obsfx: builtin print in stage context`
}

type releaseStage struct{}

// The suite-wide escape hatch applies here like everywhere else.
//
//lint:allow obsfx — fixture: sanctioned debugging aid, removed before merge
func (st *releaseStage) debug() {
	fmt.Println("allowed by directive")
}

// report is not stage context: ordinary code may print freely.
func report(w io.Writer, n int) {
	fmt.Fprintf(w, "detections=%d\n", n)
	fmt.Println("done")
	log.Printf("done")
}

// println shadowed by a local func is not the builtin.
func (st *releaseStage) deliver() {
	println := func(s string) int { return len(s) }
	_ = println("shadowed")
}
