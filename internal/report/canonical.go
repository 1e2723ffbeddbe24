package report

import (
	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/soc"
)

// PaperProcessors returns the processor-instance count of the paper's
// evaluation systems: 8, or 6 for the smaller d695.
func PaperProcessors(benchName string) int {
	if benchName == "d695" {
		return 6
	}
	return 8
}

// CanonicalSystem builds the canonical reproduction cell of one
// embedded benchmark — Leon processors at full reuse under the paper's
// power ceiling and BIST factor. It is the single definition of the
// cell that TestCanonicalMakespansPinned and the verification sweep's
// benchmark gap records both measure, so the two stay comparable.
func CanonicalSystem(benchName string) (*soc.System, core.Options, error) {
	bench, err := itc02.Benchmark(benchName)
	if err != nil {
		return nil, core.Options{}, err
	}
	sys, err := soc.Build(bench, soc.BuildConfig{
		Processors: PaperProcessors(benchName),
		Profile:    soc.Leon(),
	})
	if err != nil {
		return nil, core.Options{}, err
	}
	opts := core.Options{
		PowerLimitFraction: PaperPowerFraction,
		BISTPatternFactor:  PaperBISTFactor,
	}
	return sys, opts, nil
}
