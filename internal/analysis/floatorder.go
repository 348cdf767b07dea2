package analysis

// FloatOrder machine-checks the float-determinism argument of DESIGN.md
// §7.5: floating-point addition is not associative, so a += / -= (or
// x = x ± y) reduction whose terms arrive in a nondeterministic order — map
// iteration (randomized per run) or goroutine/channel arrival — produces
// run-dependent last bits, which the byte-identical report and snapshot
// contracts (TestRunManyMatchesRun, TestFleetMatchesSerial) cannot
// tolerate. maprange deliberately accepts numeric += folds as commutative
// for its integer-determinism purposes; floatorder closes exactly the
// floating-point gap that maprange's acceptance documents.
//
// The sanctioned writer — core.Network's incremental penalty sum, which
// every internal/fleet shard's engine also keeps — stays clean by
// construction: it folds in event order over deterministic containers
// (bitset iteration in ascending link order) and re-sums exactly every
// penaltyRebuildEvery updates, so it contains no map-order or arrival-order
// folds for this analyzer to flag. Anything else that needs an
// order-sensitive fold must sort its keys first, re-sum in a fixed order,
// or carry a `//lint:allow floatorder <reason>` annotation.
var FloatOrder = &Analyzer{
	Name: "floatorder",
	Doc: "flags order-sensitive floating-point accumulation over map " +
		"iteration or goroutine/channel arrival order (DESIGN.md §7.5, §8)",
	Run: runFloatOrder,
}

func runFloatOrder(pass *Pass) error {
	w := pass.world()
	for _, fs := range w.PackageFacts(pass.Path) {
		for _, fa := range fs.FloatAccums {
			pass.Reportf(fa.Pos,
				"order-sensitive floating-point accumulation folds %s: float addition is not associative, so the result depends on run order; iterate sorted keys or merge in a fixed order (DESIGN.md §7.5)",
				fa.What)
		}
	}
	return nil
}
