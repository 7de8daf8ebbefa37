package experiments

import (
	"context"
	"io"
)

// Experiment is one experiment of `vodbench -exp`: its name and a Run
// that computes it and prints its text form to w.
type Experiment struct {
	Name string
	Run  func(ctx context.Context, o Options, w io.Writer) error
}

// All lists every experiment in `vodbench -exp all` order. cmd/vodbench
// runs from it, and the golden, determinism and cancellation tests
// iterate it.
var All = []Experiment{
	{"fig7a", fig7(Fig7FF)},
	{"fig7b", fig7(Fig7RW)},
	{"fig7c", fig7(Fig7PAU)},
	{"fig7d", fig7(Fig7Mixed)},
	{"fig8", printed(Fig8Ctx, PrintFig8)},
	{"ex1", printed(Example1Ctx, PrintExample1)},
	{"fig9", printed(Fig9Ctx, PrintFig9)},
	{"ex2", printed(Example2Ctx, PrintExample2)},
	{"sens", printed(SensitivityCtx, PrintSensitivity)},
	{"piggyback", printed(PiggybackCtx, PrintPiggyback)},
	{"e2e", printed(EndToEndCtx, PrintEndToEnd)},
	{"faults", printed(FaultsCtx, PrintFaults)},
	{"cluster", printed(ClusterCtx, PrintCluster)},
	{"churn", printed(ChurnCtx, PrintChurn)},
	{"gray", printed(GrayCtx, PrintGray)},
	{"scale", printed(ScaleCtx, PrintScale)},
	{"verify", printed(VerifyTableCtx, PrintVerifyTable)},
}

// printed pairs an experiment with its printer.
func printed[T any](compute func(context.Context, Options) (T, error), show func(io.Writer, T)) func(context.Context, Options, io.Writer) error {
	return func(ctx context.Context, o Options, w io.Writer) error {
		r, err := compute(ctx, o)
		if err != nil {
			return err
		}
		show(w, r)
		return nil
	}
}

// fig7 runs and prints one Figure 7 panel.
func fig7(v Fig7Variant) func(context.Context, Options, io.Writer) error {
	return printed(func(ctx context.Context, o Options) ([]Fig7Series, error) { return Fig7Ctx(ctx, v, o) },
		func(w io.Writer, s []Fig7Series) { PrintFig7(w, v, s) })
}
