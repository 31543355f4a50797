package lint

import (
	"go/types"

	"qnp/internal/lint/analysis"
)

// detRandAnalyzer flags nondeterminism sources inside simulation packages:
// wall-clock reads and the process-global math/rand source. Simulation code
// must be a pure function of the replica seed — a single time.Now or global
// rand.Intn silently breaks worker-count invariance and the byte-identity
// CI gates. Escape hatch: //qnetlint:allow detrand <reason>.
var detRandAnalyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock time and global math/rand in simulation packages\n\n" +
		"Simulation packages (sim, qnet, core, routing, linklayer, device,\n" +
		"hardware, werner, quantum, signaling) must derive every random draw\n" +
		"from the replica seed and every timestamp from sim.Time. Wall-clock\n" +
		"reads (time.Now/Since/Sleep/...) and the shared global math/rand\n" +
		"functions make replicas diverge run to run.",
	Run: withDirectives(runDetRand),
}

// detrandBanned maps package path -> function name -> why it is banned.
var detrandBanned = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"Sleep":     "blocks on the wall clock",
		"After":     "schedules on the wall clock",
		"Tick":      "schedules on the wall clock",
		"NewTimer":  "schedules on the wall clock",
		"NewTicker": "schedules on the wall clock",
		"AfterFunc": "schedules on the wall clock",
	},
	// Top-level math/rand functions draw from the process-global source,
	// which is shared across goroutines and (since go1.20) randomly
	// seeded. Constructors (New, NewSource, NewZipf) are fine: they build
	// explicitly seeded streams.
	"math/rand": {
		"Int": "", "Intn": "", "Int31": "", "Int31n": "", "Int63": "", "Int63n": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "",
		"ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "",
		"Read": "", "Seed": "",
	},
	"math/rand/v2": {
		"Int": "", "IntN": "", "Int32": "", "Int32N": "", "Int64": "", "Int64N": "",
		"Uint32": "", "Uint32N": "", "Uint64": "", "Uint64N": "", "UintN": "", "Uint": "",
		"Float32": "", "Float64": "", "ExpFloat64": "", "NormFloat64": "",
		"Perm": "", "Shuffle": "", "N": "",
	},
	// crypto/rand is nondeterministic by design.
	"crypto/rand": {
		"Read": "", "Int": "", "Prime": "", "Text": "",
	},
}

func runDetRand(pass *analysis.Pass, sup *suppressor) {
	if !isSimulationPackage(pass.Pkg.Path()) {
		return
	}
	// The driver sorts diagnostics by position, so the random iteration
	// order of Uses never reaches the output.
	for id, obj := range pass.TypesInfo.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			if obj.Pkg() == nil {
				continue
			}
			// Methods on explicitly seeded values ((*rand.Rand).Intn,
			// (*time.Timer).Reset, ...) are fine: only the package-level
			// functions touch the global source / wall clock.
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				continue
			}
			why, banned := detrandBanned[obj.Pkg().Path()][obj.Name()]
			if !banned {
				continue
			}
			if why == "" {
				if obj.Pkg().Path() == "crypto/rand" {
					why = "is nondeterministic by design"
				} else {
					why = "draws from the shared global source"
				}
			}
			sup.report(id.Pos(), "%s.%s %s: simulation code must derive all randomness and time from the replica seed (use the scenario's seeded streams / sim.Time)",
				obj.Pkg().Name(), obj.Name(), why)
		case *types.Var:
			// crypto/rand.Reader is a package variable, not a function.
			if obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand" && obj.Name() == "Reader" {
				sup.report(id.Pos(), "crypto/rand.Reader is nondeterministic by design: simulation code must derive all randomness from the replica seed")
			}
		}
	}
}
