package core

import (
	"encoding/json"
	"time"
)

// The JSON encodings below are the one wire schema shared by every consumer
// of a Report: the tsperrd estimation service, `tsperr -json`, and
// `report -json` all emit exactly these bytes, pinned by the golden test in
// json_test.go. The schema is a projection, not a dump: the CFG graph and
// the per-scenario solver state stay out (they are huge and carry unexported
// internals), while everything a client needs to rank, alert on, or re-plot
// a program's error-rate distribution is flattened in.

// reportJSON is the wire form of a Report.
type reportJSON struct {
	Name          string  `json:"name"`
	Instructions  int64   `json:"instructions"`
	BasicBlocks   int     `json:"basic_blocks"`
	TrainingSec   float64 `json:"training_sec"`
	SimulationSec float64 `json:"simulation_sec"`
	// Scenarios is the number of surviving scenarios the estimate is built
	// from (fewer than requested in a degraded run).
	Scenarios int `json:"scenarios"`
	// Degraded/FailedScenarios/Failures carry the graceful-degradation
	// outcome; Failures flattens the errors.Join tree into one string per
	// dropped scenario, phase-tagged like the CLI failure detail.
	Degraded        bool      `json:"degraded,omitempty"`
	FailedScenarios int       `json:"failed_scenarios,omitempty"`
	Failures        []string  `json:"failures,omitempty"`
	Estimate        *Estimate `json:"estimate"`
	// MC is the sharded Monte Carlo validation when one was requested
	// (AnalyzeOpts.MCTrials > 0); its fields carry their own json tags.
	MC *MCValidation `json:"montecarlo,omitempty"`
	// Tier and Surrogate are the two-tier service annotations; both are
	// omitted on reports that predate the surrogate (read as exact), so the
	// pre-surrogate wire bytes are unchanged.
	Tier      string         `json:"tier,omitempty"`
	Surrogate *SurrogateMeta `json:"surrogate,omitempty"`
}

// estimateJSON is the wire form of an Estimate: the lambda distribution, the
// derived error-rate headline numbers, and the Section 5/6.4 approximation
// bounds.
type estimateJSON struct {
	LambdaMean float64 `json:"lambda_mean"`
	LambdaStd  float64 `json:"lambda_std"`
	TotalInsts float64 `json:"total_instructions"`
	// MeanErrorRate/StdErrorRate/quantiles are fractions (0.004 = 0.4%).
	MeanErrorRate float64 `json:"mean_error_rate"`
	StdErrorRate  float64 `json:"std_error_rate"`
	P50           float64 `json:"p50_error_rate"`
	P95           float64 `json:"p95_error_rate"`
	P99           float64 `json:"p99_error_rate"`
	DKLambda      float64 `json:"dk_lambda"`
	DKCount       float64 `json:"dk_count"`
	B1            float64 `json:"b1"`
	B2            float64 `json:"b2"`
}

// MarshalJSON renders the report's stable wire schema.
func (r *Report) MarshalJSON() ([]byte, error) {
	scenarios := len(r.Scenarios)
	if scenarios == 0 {
		scenarios = r.scenarioCount
	}
	failures := failureStrings(r.Failures)
	if failures == nil {
		failures = r.wireFailures
	}
	out := reportJSON{
		Name:            r.Name,
		Instructions:    r.Instructions,
		BasicBlocks:     r.BasicBlocks,
		TrainingSec:     durationSec(r.Training),
		SimulationSec:   durationSec(r.Simulation),
		Scenarios:       scenarios,
		Degraded:        r.Degraded,
		FailedScenarios: r.FailedScenarios,
		Failures:        failures,
		Estimate:        r.Estimate,
		MC:              r.MC,
		Tier:            r.Tier,
		Surrogate:       r.Surrogate,
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the wire schema back into a Report. The projection is
// lossy by design — the CFG graph and per-scenario solver state never leave
// the producing process — so the decoded Report carries the summary fields
// only: Scenarios stays empty (the count lands in the unexported round-trip
// memo) and Failures stays nil (the flattened strings likewise). Re-marshaling
// the decoded Report emits the original bytes, which is what lets a cluster
// coordinator proxy a worker's report without perturbing it.
func (r *Report) UnmarshalJSON(b []byte) error {
	var in reportJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*r = Report{
		Name:            in.Name,
		Instructions:    in.Instructions,
		BasicBlocks:     in.BasicBlocks,
		Training:        secDuration(in.TrainingSec),
		Simulation:      secDuration(in.SimulationSec),
		Estimate:        in.Estimate,
		Degraded:        in.Degraded,
		FailedScenarios: in.FailedScenarios,
		MC:              in.MC,
		Tier:            in.Tier,
		Surrogate:       in.Surrogate,
		scenarioCount:   in.Scenarios,
		wireFailures:    in.Failures,
	}
	return nil
}

// UnmarshalJSON decodes the estimate's wire schema. The lambda distribution
// parameters, instruction total, and approximation bounds are the complete
// inputs of every derived quantity (the Equation 14 quadrature memo is built
// from LambdaMean/LambdaStd on demand), so a decoded estimate answers CDF and
// quantile queries — and re-marshals — bit-identically to the original.
// LambdaSamples is not part of the wire schema and stays nil.
func (e *Estimate) UnmarshalJSON(b []byte) error {
	var in estimateJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*e = Estimate{
		LambdaMean: in.LambdaMean,
		LambdaStd:  in.LambdaStd,
		TotalInsts: in.TotalInsts,
		DKLambda:   in.DKLambda,
		DKCount:    in.DKCount,
		B1:         in.B1,
		B2:         in.B2,
	}
	return nil
}

// MarshalJSON renders the estimate's wire schema, including the derived
// error-rate quantiles so clients never re-implement the Equation (14)
// quadrature. The quantiles come from the per-estimate memo, so only the
// first encode of an estimate pays for them.
func (e *Estimate) MarshalJSON() ([]byte, error) {
	p50, p95, p99 := e.Quantiles()
	out := estimateJSON{
		LambdaMean:    e.LambdaMean,
		LambdaStd:     e.LambdaStd,
		TotalInsts:    e.TotalInsts,
		MeanErrorRate: e.MeanErrorRate(),
		StdErrorRate:  e.StdErrorRate(),
		P50:           p50,
		P95:           p95,
		P99:           p99,
		DKLambda:      e.DKLambda,
		DKCount:       e.DKCount,
		B1:            e.B1,
		B2:            e.B2,
	}
	return json.Marshal(out)
}

// durationSec rounds a phase duration to microsecond granularity — far
// below measurement noise, and it keeps the JSON free of 17-digit float
// artifacts.
func durationSec(d time.Duration) float64 {
	return float64(d.Round(time.Microsecond)) / float64(time.Second)
}

// secDuration inverts durationSec. The float product can land a fraction of a
// nanosecond off the original microsecond multiple; rounding to microseconds
// restores it exactly, so durationSec(secDuration(s)) == s.
func secDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}

// failureStrings flattens a joined failure tree into one line per scenario,
// matching the harness failure-detail wording; a non-scenario error becomes
// a single entry.
func failureStrings(err error) []string {
	if err == nil {
		return nil
	}
	ses := ScenarioErrors(err)
	if len(ses) == 0 {
		return []string{err.Error()}
	}
	out := make([]string, len(ses))
	for i, se := range ses {
		out[i] = se.Error()
	}
	return out
}
