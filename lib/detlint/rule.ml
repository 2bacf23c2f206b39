type id =
  | Unordered_iteration
  | Poly_compare
  | Physical_equality
  | Ambient_time
  | Ambient_random
  | Marshal
  | Unguarded_shared_mutation
  | Atomic_rmw
  | Purity_contract
  | Bad_suppression
  | Unused_suppression

type t = {
  id : id;
  name : string;
  severity : Lint.Severity.t;
  synopsis : string;
  doc : string;
  hint : string;
}

let unordered_iteration =
  {
    id = Unordered_iteration;
    name = "unordered-iteration";
    severity = Lint.Severity.Error;
    synopsis = "iteration over an unordered container whose order can escape";
    doc =
      "Flags Hashtbl.iter / Hashtbl.fold / Hashtbl.to_seq(_keys/_values) and \
       Sys.readdir, by resolved path (through module aliases and opens): \
       both enumerate in an unspecified order (bucket layout, \
       directory layout) that varies with insertion history, hash seeding and \
       the filesystem, so any result built from the raw order breaks \
       bit-identical replay.  The rule flags every occurrence; sites that \
       canonicalise immediately (sort by a total key before the order can \
       escape) carry a suppression with the reason spelled out.";
    hint =
      "sort the collected results by a canonical key before they escape, or \
       suppress with a written reason if the order provably cannot escape";
  }

let poly_compare =
  {
    id = Poly_compare;
    name = "poly-compare";
    severity = Lint.Severity.Error;
    synopsis = "polymorphic structural comparison where the order may not be total";
    doc =
      "Classifies the instantiated type at every polymorphic comparison \
       site (compare, =, <>, <, >, <=, >=) and every Set.Make/Map.Make \
       argument.  Polymorphic compare is not a total order on floats (nan \
       falls through every comparison — the exact class behind the \
       Summary.percentile bug), raises on functions, and silently changes \
       meaning when a type gains a float field.  [compare] is flagged when \
       its type is proved unsafe or cannot be proved safe (still \
       polymorphic, abstract); the ordering operators only when proved \
       unsafe.  Annotate the site with a concrete type, or use the explicit \
       comparator (Int.compare, Float.compare, a per-type compare).";
    hint =
      "annotate the site with a concrete, provably safe type, or use an explicit \
       monomorphic comparator (Int.compare, Float.compare, String.compare, a \
       hand-written per-type compare)";
  }

let physical_equality =
  {
    id = Physical_equality;
    name = "physical-equality";
    severity = Lint.Severity.Error;
    synopsis = "physical equality (== / !=) outside an identity cache";
    doc =
      "Flags every use of the stdlib's (==) and (!=) (a local binding of the \
       same name is not one).  Physical equality depends on \
       allocation and sharing decisions the language does not specify, so \
       branches taken on it can differ between runs, optimisation levels and \
       jobs counts.  The only legitimate uses are identity caches and \
       cheap same-object short-circuits whose result is semantically \
       invisible; those carry a suppression with the reason.";
    hint =
      "use structural equality or a per-type equal; suppress only for an \
       identity cache whose hits are semantically invisible";
  }

let ambient_time =
  {
    id = Ambient_time;
    name = "ambient-time";
    severity = Lint.Severity.Error;
    synopsis = "ambient wall-clock reads outside Obs.Clock";
    doc =
      "Flags Sys.time, Unix.time and Unix.gettimeofday, by resolved path \
       (through module aliases).  Wall-clock reads \
       make control flow depend on the host's scheduler and clock, which is \
       exactly what the bit-identical-replay guarantee forbids; all timing \
       goes through Obs.Clock (monotonic-clamped, instrumentation-only) so \
       it can never feed back into simulation results.";
    hint =
      "route timing through Obs.Clock (observability-only); simulated time \
       comes from the engine, never the host";
  }

let ambient_random =
  {
    id = Ambient_random;
    name = "ambient-random";
    severity = Lint.Severity.Error;
    synopsis = "ambient stdlib Random outside the seeded Rng";
    doc =
      "Flags every use of the stdlib Random module (including Random.State, \
       Random.self_init and aliases of the module; a user module named \
       Random is not it).  Its global state is invisible to the replay \
       seed, so any draw from it forks the run from its recorded seed.  All \
       randomness flows through Sim.Rng, which is explicitly seeded, \
       splittable, and part of every experiment's recorded configuration — \
       the FLP model's own discipline of making all nondeterminism explicit.";
    hint = "draw from an explicitly seeded Sim.Rng threaded from the experiment config";
  }

let marshal =
  {
    id = Marshal;
    name = "marshal";
    severity = Lint.Severity.Error;
    synopsis = "Marshal (or output_value/input_value) anywhere";
    doc =
      "Flags the Marshal module and its output_value/input_value aliases.  \
       Marshalled bytes encode sharing, closure code pointers and flags that \
       are not stable across compiler versions or even runs, so they can \
       neither be diffed nor replayed; every artifact this repository emits \
       goes through the typed Flp_json tree instead.";
    hint = "emit and parse the typed Flp_json representation instead";
  }

let unguarded_shared_mutation =
  {
    id = Unguarded_shared_mutation;
    name = "unguarded-shared-mutation";
    severity = Lint.Severity.Warn;
    synopsis = "data race on state captured by a domain-crossing closure";
    doc =
      "An interprocedural closure-escape analysis: state captured by a \
       closure that crosses domains (Domain.spawn, Pool.run, Pool.map) and \
       mutated — inside the closure, or on the submitting side after the \
       submission, directly or through callees in the cmt index — outside \
       Mutex.protect / a Mutex.lock region, an Atomic operation or the \
       sharded metrics' per-worker contract.  This is a conservative static \
       stand-in for the thread sanitizer we cannot run on this toolchain: \
       writes published by another happens-before edge are reported and \
       must carry a suppression explaining the protocol that makes them \
       safe.";
    hint =
      "wrap the write in Mutex.protect or use Atomic; if a happens-before \
       edge other than a held lock publishes it, suppress with the protocol \
       spelled out";
  }

let atomic_rmw =
  {
    id = Atomic_rmw;
    name = "atomic-read-modify-write";
    severity = Lint.Severity.Warn;
    synopsis = "Atomic.set of a value computed from Atomic.get of the same atomic";
    doc =
      "Flags [Atomic.set a (f (Atomic.get a))]: the get and the set are each \
       atomic, but the pair is not — another domain's update between them is \
       silently lost, and which updates survive depends on scheduling, so \
       results stop being replay-stable.  Every read-modify-write must be a \
       single atomic step.";
    hint =
      "use Atomic.incr / Atomic.fetch_and_add for counters, or a \
       compare_and_set retry loop for general read-modify-write";
  }

let purity_contract =
  {
    id = Purity_contract;
    name = "purity-contract";
    severity = Lint.Severity.Error;
    synopsis = "a [@detlint.pure] binding performs an ambient effect or mutation";
    doc =
      "Checks the [@detlint.pure] attribute: a certified binding (and, \
       transitively, every callee the cmt index resolves) must not mutate \
       its arguments, captured state or globals, and must not reach ambient \
       effects (wall clock, stdlib Random, IO, environment, domain \
       submission).  Mutation of fresh local state that the function itself \
       creates is allowed — purity here is observational.  The call graph \
       is resolved through the cmt index; calls that leave the indexed set \
       are assumed effect-free, which is the contract's documented \
       soundness caveat.";
    hint =
      "drop the effect, thread the state explicitly, or remove the \
       [@detlint.pure] attribute if the function is genuinely effectful";
  }

let bad_suppression =
  {
    id = Bad_suppression;
    name = "bad-suppression";
    severity = Lint.Severity.Error;
    synopsis = "detlint suppression without a reason or with an unknown rule id";
    doc =
      "Every suppression must name a rule from this catalogue and carry a \
       written reason; a bare allow is indistinguishable from silencing a \
       real hazard, so it is itself an error.  Reasonless or unknown-rule \
       suppressions are inert (they suppress nothing) and flagged here, \
       which keeps the JSON report's suppression inventory honest.";
    (* assembled so detlint's own pragma scanner does not read this literal as
       a (reasonless) suppression of rule.ml itself *)
    hint =
      "write the reason into the pragma: (* detlint"
      ^ ": allow <rule-id> -- why it is safe *)";
  }

let unused_suppression =
  {
    id = Unused_suppression;
    name = "unused-suppression";
    severity = Lint.Severity.Warn;
    synopsis = "valid suppression that silenced no finding";
    doc =
      "A suppression whose rule was run against its file yet silenced zero \
       findings is dead weight: the hazard it once excused is gone (or moved \
       out of its two-line scope), and a stale allow is exactly where the \
       next real hazard hides unnoticed.  Reported as a warning so cleanup \
       is visible without failing the gate; only valid suppressions whose \
       target rule was actually selected for the run are considered, so \
       running a rule subset does not flag the others' pragmas.";
    hint = "delete the stale pragma, or move it next to the line it excuses";
  }

let all =
  [
    unordered_iteration;
    poly_compare;
    physical_equality;
    ambient_time;
    ambient_random;
    marshal;
    unguarded_shared_mutation;
    atomic_rmw;
    purity_contract;
    bad_suppression;
    unused_suppression;
  ]

let find name = List.find_opt (fun r -> r.name = name) all

let names () = List.map (fun r -> r.name) all

let known name = List.exists (fun r -> r.name = name) all

let pp ppf r =
  Format.fprintf ppf "%s (%a): %s" r.name Lint.Severity.pp r.severity r.synopsis
