package core

import (
	"pfuzzer/internal/subject"
)

// Campaign is the unified resumable-engine API: a fuzzing campaign
// driven in execution slices instead of one blocking Run. The engine,
// with or without the hybrid phase driver, sits behind the same
// three-method surface —
//
//	Step(n)    advance by up to n executions
//	Result()   the live campaign result
//	Snapshot() a serializable image restorable with Restore
//
// — which is what the fleet orchestrator (internal/campaign)
// multiplexes over a worker pool and the corpus store
// (internal/corpus) persists across process restarts.
//
// Stepping is execution-equivalent: any slicing of the budget visits
// the same executions in the same order as a single Run, so campaigns
// inside a fleet — and campaigns restored from a snapshot — stay
// bit-identical to the golden standalone sequences.
type Campaign struct {
	f *Fuzzer
}

// NewCampaign prepares a step-driven campaign for prog. The campaign
// owns its engine exclusively; there is no Run to conflict with.
func NewCampaign(prog subject.Program, cfg Config) *Campaign {
	f := New(prog, cfg)
	f.ran = true // the Campaign drives the engine; a stray Fuzzer.Run must not
	return &Campaign{f: f}
}

// Step advances the campaign by up to n executions and returns how
// many were actually spent (the engine may overshoot by an in-flight
// input-plus-extension pair, exactly as Run does at the budget edge)
// and whether the campaign can still make progress. Step never blocks
// beyond the slice: a hybrid campaign pauses and resumes mid-phase,
// the serial engine mid-iteration, with no behavioural difference to
// an uninterrupted run.
func (c *Campaign) Step(n int) (spent int, more bool) {
	return c.f.step(n)
}

// Result returns the campaign's live result. It is owned by the
// engine: read it between Steps, copy what must survive the next one.
// Elapsed is cumulative active stepping time, not wall clock.
func (c *Campaign) Result() *Result {
	return &c.f.res
}

// Finished reports whether the campaign is out of work: budget spent,
// MaxValids or Deadline hit, or the hybrid driver fully drained.
func (c *Campaign) Finished() bool {
	return c.f.campaignOver()
}
