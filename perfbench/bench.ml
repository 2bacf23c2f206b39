(* perfbench: the repository's end-to-end benchmark.

   One process runs one named workload through the public entry points of
   [flp], [parallel], [sim] and [service], checks every output against the
   correctness gate, and prints one JSON result line last:

     bench.exe --workload lemma2-race3 --seed 1 --seconds 20 --trace 0

   A run has three phases, all timed on [Obs.Clock]:

   - set-up, done [setups] times; [setup_s] is the median.  It covers
     protocol lookup and functor instantiation, input or cell generation, a
     pool spawn at the workload's [jobs], and one smaller warm-up call;
   - the timed phase: whole calls into the public entry point until
     [--seconds] is spent; [work_per_s] is their total work over their
     total time.  Per-call times on a shared host flip between a fast and a
     slow mode, and a median of many short calls jumps with whichever mode
     held the run's majority; the total averages over both;
   - the gate pass: checks that need work beyond the timed calls (graph
     sizes, the service report at jobs=1 against jobs=2).

   [--trace 1] splits the timed phase in two halves: untraced calls as
   above, then the same work decomposed into its layer calls with a span
   around each (name, start, end, parent; kept in memory and written to
   [--spans] at the end).  It prints the per-layer metrics instead of the
   end-to-end ones, with each layer's self time and the tracing overhead
   (traced minus untraced [work_per_s]).  No tracing happens inside
   [lib/]: explorer calls get no live [Obs.t] at jobs=1, where a live one
   would switch [Explore.explore] to the frontier driver.

   Exit codes: 0 gate passed; 1 gate mismatch (the result line is still
   printed, with "correct": false); 2 usage error or a workload whose [jobs]
   exceeds the host's cores (no result line). *)

let fail_usage fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sum_by f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Work per second over calls given as (work, seconds) pairs. *)
let rate calls = ratio (sum_by (fun (w, _) -> float_of_int w) calls) (sum_by snd calls)

(* ---- Spans: recorded around layer calls from this file only ---- *)

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** 0 for a root *)
    t0 : float;
    t1 : float;
  }

  (* Every span is recorded on the calling domain: the explorer's spans wrap
     whole calls, and the service runs its shards at jobs=1. *)
  let recorded : span list ref = ref []

  let next_id = ref 1

  (* [f] receives the new span's id, to pass as [parent] to child spans. *)
  let timed ?(parent = 0) name f =
    let id = !next_id in
    incr next_id;
    let t0 = Obs.Clock.now () in
    let r = f id in
    let t1 = Obs.Clock.now () in
    recorded := { id; name; parent; t0; t1 } :: !recorded;
    (r, t1 -. t0)

  let record ?parent name f = fst (timed ?parent name f)

  let dur s = s.t1 -. s.t0

  let all () = List.rev !recorded

  (* Total self time per span name over [spans]: each span's duration
     minus its children's durations. *)
  let self_by_name spans =
    let child_s = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent) in
          Hashtbl.replace child_s s.parent (prev +. dur s))
      spans;
    let totals = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals s.name) in
        let children = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
        Hashtbl.replace totals s.name (prev +. dur s -. children))
      spans;
    totals

  let write path =
    let spans = all () in
    let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
    Obs.Sink.with_file path (fun sink ->
        List.iter
          (fun s ->
            Obs.Sink.emit sink
              (Flp_json.Obj
                 [
                   ("id", Flp_json.Int s.id);
                   ("name", Flp_json.Str s.name);
                   ("parent", Flp_json.Int s.parent);
                   ("start_s", Flp_json.Float (s.t0 -. origin));
                   ("end_s", Flp_json.Float (s.t1 -. origin));
                 ]))
          spans)
end

(* ---- GC deltas ---- *)

type gc = { minor : float; promoted : float; major : float; minors : int; majors : int }

(* [Gc.quick_stat] sums every domain's counters as of that domain's last
   minor collection (in OCaml 5 a minor collection stops every domain);
   forcing one first makes the snapshot current for all domains, so deltas
   cover worker domains too.  [Gc.minor_words] alone would count only the
   calling domain. *)
let gc_snapshot () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    minors = s.Gc.minor_collections;
    majors = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    major = b.major -. a.major;
    minors = b.minors - a.minors;
    majors = b.majors - a.majors;
  }

let gc_layers d =
  [
    ("gc.minor_words", d.minor);
    ("gc.promoted_words", d.promoted);
    ("gc.major_words", d.major);
    ("gc.minor_collections", float_of_int d.minors);
    ("gc.major_collections", float_of_int d.majors);
  ]

let with_gc f =
  let a = gc_snapshot () in
  let r = f () in
  (r, gc_delta a (gc_snapshot ()))

(* Pool metrics from a live registry, as [Parallel.Pool.create ~metrics]
   records them. *)
let pool_layers m =
  let busy = Obs.Metrics.timer_seconds (Obs.Metrics.timer m "pool.worker.busy") in
  let idle = Obs.Metrics.timer_seconds (Obs.Metrics.timer m "pool.worker.idle") in
  [
    ("pool.busy_s", busy);
    ("pool.idle_s", idle);
    ("pool.idle_share", ratio idle (busy +. idle));
    ("pool.batches", float_of_int (Obs.Metrics.timer_calls (Obs.Metrics.timer m "pool.batch")));
  ]

(* ---- Workloads ---- *)

type outcome = {
  work : int;  (** units of work completed by the call *)
  attempted : int;  (** ops attempted: explorations, or commands submitted *)
  failed : int;  (** ops failed: explorations truncated, or commands not completed *)
  errors : string list;  (** correctness-gate mismatches *)
}

type traced = {
  outcome : outcome;
  layers : (string * float) list;  (** per-layer values of this call *)
  extra_s : float;
      (** seconds spent on measurement-only calls the untraced call does not
          make; excluded from the traced rate *)
}

type instance = {
  call : unit -> outcome;  (** one untraced call through the public entry point *)
  traced_call : parent:int -> traced;  (** the same work, one span per layer call *)
  check : cores:int -> string list;
      (** gate work beyond the timed calls; runs once, on at most [cores] domains *)
}

type workload = {
  name : string;
  jobs : int;
  work_unit : string;
  setup : smoke:bool -> seed:int -> instance;
}

let max_configs = 1 lsl 21

let zoo name =
  match Flp.Zoo.find name with
  | Some p -> p
  | None -> failwith (Printf.sprintf "protocol %S missing from the zoo" name)

(* Set-up ends with the workload's own entry point on this smaller
   protocol (a fifteenth of race:3's Lemma 2 configs), which grows the heap and
   warms the code before the first timed call. *)
let warmup_protocol = "race:2"

(* Inputs 0..01: the last process starts with 1. *)
let last_one n = Array.init n (fun p -> if p = n - 1 then Flp.Value.One else Flp.Value.Zero)

let mismatch fmt = Printf.ksprintf (fun m -> [ m ]) fmt

let expect what ~got ~want =
  if got = want then [] else mismatch "%s: got %d, want %d" what got want

(* Lemma 2 on race:N — every initial configuration explored and classified.
   Pinned: 000 is 0-valent, 111 1-valent, the rest bivalent, with the
   graph sizes below. *)
type lemma2_pins = {
  protocol : string;
  bivalent : int * int;  (** configs, edges of each bivalent exploration *)
  zeros : int * int;  (** configs, edges from all-0 inputs *)
  ones : int * int;  (** configs, edges from all-1 inputs *)
}

let lemma2_pins ~smoke =
  if smoke then
    { protocol = "race:2"; bivalent = (2_095, 15_139); zeros = (80, 474); ones = (80, 474) }
  else
    { protocol = "race:3"; bivalent = (31_457, 273_923); zeros = (80, 474); ones = (80, 474) }

let lemma2 ~jobs ~smoke ~seed:_ =
  let pins = lemma2_pins ~smoke in
  let module P = (val zoo pins.protocol) in
  let module A = Flp.Analysis.Make (P) in
  let inputs = A.Lemma.all_inputs () in
  let roots = List.map (fun i -> (i, A.C.initial i)) inputs in
  let all v i = Array.for_all (Flp.Value.equal v) i in
  let want i =
    if all Flp.Value.Zero i then (A.Valency.Univalent Flp.Value.Zero, pins.zeros)
    else if all Flp.Value.One i then (A.Valency.Univalent Flp.Value.One, pins.ones)
    else (A.Valency.Bivalent, pins.bivalent)
  in
  let label i = String.concat "" (Array.to_list (Array.map Flp.Value.to_string i)) in
  let check_valence i v =
    match v with
    | None -> mismatch "%s: exploration truncated" (label i)
    | Some v when A.Valency.equal_valence v (fst (want i)) -> []
    | Some v -> mismatch "%s: valence %s" (label i) (Format.asprintf "%a" A.Valency.pp_valence v)
  in
  let configs_per_call = List.fold_left (fun acc i -> acc + fst (snd (want i))) 0 inputs in
  Parallel.Pool.with_pool ~jobs ignore;
  (let module W = Flp.Analysis.Make ((val zoo warmup_protocol)) in
   ignore (W.Lemma.check_lemma2 ~jobs ~max_configs ()));
  let call () =
    let classes = A.Lemma.check_lemma2 ~jobs ~max_configs () in
    {
      work = configs_per_call;
      attempted = List.length classes;
      failed = List.length (List.filter (fun c -> c.A.Lemma.valence = None) classes);
      errors =
        List.concat_map (fun c -> check_valence c.A.Lemma.inputs c.A.Lemma.valence) classes;
    }
  in
  (* [Lemma.check_lemma2] is [Valency.of_initial] per input, which is
     [Explore.explore] then [Valency.classify]: the same calls, timed one
     by one.  At jobs=2 the live registry keeps the frontier driver the
     untraced call uses anyway, and yields the pool's metrics. *)
  let traced_call ~parent =
    let m = Obs.Metrics.create () in
    let obs = Obs.create ~metrics:m () in
    let per_input =
      List.map
        (fun (i, root) ->
          let g, gc =
            with_gc (fun () ->
                Spans.record ~parent "flp.explore" (fun _ ->
                    A.Explore.explore ~jobs ~obs ~max_configs root))
          in
          let v =
            Spans.record ~parent "flp.valency" (fun _ ->
                if A.Explore.complete g then Some (A.Valency.classify g).(A.Explore.root g)
                else None)
          in
          let size = A.Explore.size g and edges = A.Explore.edge_count g in
          let want_size, want_edges = snd (want i) in
          let errors =
            check_valence i v
            @ expect (label i ^ " configs") ~got:size ~want:want_size
            @ expect (label i ^ " edges") ~got:edges ~want:want_edges
          in
          (g, gc, v, errors))
        roots
    in
    let sumi f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 per_input) in
    let configs = sumi (fun (g, _, _, _) -> A.Explore.size g) in
    let edges = sumi (fun (g, _, _, _) -> A.Explore.edge_count g) in
    let words = sum_by (fun (_, gc, _, _) -> gc.minor) per_input in
    {
      outcome =
        {
          work = configs_per_call;
          attempted = List.length per_input;
          failed = List.length (List.filter (fun (_, _, v, _) -> v = None) per_input);
          errors = List.concat_map (fun (_, _, _, e) -> e) per_input;
        };
      layers =
        [
          ("explore.configs", configs);
          ("explore.edges", edges);
          ("explore.words_per_edge", ratio words edges);
          ("explore.new_per_edge", ratio (configs -. float_of_int (List.length per_input)) edges);
          ("explore.probes_per_edge", ratio (sumi (fun (g, _, _, _) -> A.Explore.probe_count g)) edges);
          ( "explore.packed_bytes_per_config",
            ratio (sumi (fun (g, _, _, _) -> A.Explore.packed_bytes g)) configs );
        ]
        @ pool_layers m;
      extra_s = 0.0;
    }
  in
  let check ~cores:_ = (traced_call ~parent:0).outcome.errors in
  { call; traced_call; check }

(* Lemma 3 on race:N from inputs 001: one root exploration, then every
   (bivalent C, applicable e) pair. *)
type lemma3_pins = { protocol3 : string; bivalent_configs : int; pairs : int; holding : int }

let lemma3_pins ~smoke =
  if smoke then { protocol3 = "race:2"; bivalent_configs = 241; pairs = 1_957; holding = 1_469 }
  else { protocol3 = "race:3"; bivalent_configs = 5_035; pairs = 46_213; holding = 36_597 }

let lemma3 ~jobs ~smoke ~seed:_ =
  let pins = lemma3_pins ~smoke in
  let module P = (val zoo pins.protocol3) in
  let module A = Flp.Analysis.Make (P) in
  let inputs = last_one P.n in
  let root = A.C.initial inputs in
  (let module W = Flp.Analysis.Make ((val zoo warmup_protocol)) in
   ignore (W.Lemma.check_lemma3 ~jobs ~max_configs (last_one W.C.n)));
  let gate (s : A.Lemma.lemma3_stats) =
    expect "bivalent configs" ~got:s.bivalent_configs ~want:pins.bivalent_configs
    @ expect "pairs checked" ~got:s.pairs_checked ~want:pins.pairs
    @ expect "pairs holding" ~got:s.pairs_holding ~want:pins.holding
  in
  (* One exploration from the root, then one avoid-e walk of that graph per
     pair; a truncated root makes [check_lemma3] raise. *)
  let lemma3_call () =
    match A.Lemma.check_lemma3 ~jobs ~max_configs inputs with
    | s ->
        { work = s.pairs_checked; attempted = 1 + s.pairs_checked; failed = 0; errors = gate s }
    | exception A.Valency.Incomplete ->
        { work = 0; attempted = 1; failed = 1; errors = [ "root exploration truncated" ] }
  in
  (* No live [Obs.t] here: at jobs=1 it would switch the explorer to the
     frontier driver.  The root is explored and classified from outside,
     and [lemma3.pairs_s] is the [check_lemma3] time minus that root time. *)
  let traced_call ~parent =
    let (g, explore_s), explore_gc =
      with_gc (fun () ->
          Spans.timed ~parent "flp.explore" (fun _ ->
              A.Explore.explore ~jobs ~max_configs root))
    in
    let (), valency_s =
      Spans.timed ~parent "flp.valency" (fun _ -> ignore (A.Valency.classify g))
    in
    let o, lemma_s = Spans.timed ~parent "flp.lemma" (fun _ -> lemma3_call ()) in
    let configs = float_of_int (A.Explore.size g) in
    let edges = float_of_int (A.Explore.edge_count g) in
    let root_s = explore_s +. valency_s in
    {
      outcome = o;
      layers =
        [
          ("explore.configs", configs);
          ("explore.edges", edges);
          ("explore.words_per_edge", ratio explore_gc.minor edges);
          ("explore.new_per_edge", ratio (configs -. 1.0) edges);
          ("explore.probes_per_edge", ratio (float_of_int (A.Explore.probe_count g)) edges);
          ( "explore.packed_bytes_per_config",
            ratio (float_of_int (A.Explore.packed_bytes g)) configs );
          ("lemma3.root_s", root_s);
          ("lemma3.pairs_s", lemma_s -. root_s);
          ("lemma3.pairs", float_of_int o.work);
        ];
      extra_s = root_s;
    }
  in
  { call = lemma3_call; traced_call; check = (fun ~cores:_ -> []) }

(* The multi-decree service with the classic two-phase decree: the
   classic/oblivious open:2:20 cell of the committed service grid
   (BENCH_service.json) on the wheel queue — per shard, 48 logical clients
   over n=3 replicas, each submitting on a Poisson process of 2 commands per
   simulated second until [horizon] (an open loop).  Its four shards, run
   one after another at jobs=1, average four seed streams: one shard's rate
   moved by a third from one seed to the next.  Set-up warms up with one
   call of the cell. *)
let classic_open ~jobs ~smoke ~seed =
  let horizon = if smoke then 2.0 else 20.0 in
  let n = 3 in
  let c =
    {
      Service.Runner.protocol = "classic";
      policy = Sched.Spec.Oblivious;
      queue = Sim.Engine.Queue_wheel;
      load = Service.Gen.Open { rate = 2.0; horizon };
      clients = 48;
      n;
      shards = 4;
      batch = 1;
      pipeline = 1024;
      delays = Sim.Delay.Uniform (0.1, 1.0);
      seed;
      max_steps = 5_000_000;
    }
  in
  let run ~jobs c =
    match Service.Runner.run ~jobs [ c ] with
    | [ (_, r) ] -> r
    | rs -> failwith (Printf.sprintf "expected 1 report, got %d" (List.length rs))
  in
  ignore (run ~jobs c);
  let outcome (r : Service.Report.t) =
    {
      work = r.decided;
      attempted = r.submitted;
      failed = r.submitted - r.completed;
      errors =
        (if r.submitted > 0 then [] else [ "no command submitted" ])
        @ expect "decided vs submitted" ~got:r.decided ~want:r.submitted
        @ expect "completed vs submitted" ~got:r.completed ~want:r.submitted
        @ expect "learns vs (n-1)*decided" ~got:r.learns ~want:((n - 1) * r.decided);
    }
  in
  let call () = outcome (run ~jobs c) in
  (* [Runner.run] is one pool map of [Runner.run_shard] then
     [Report.of_shards]: the same calls, with a span around each.  At jobs=1
     the pool runs the shards on the calling domain, which the span recorder
     needs. *)
  let traced_call ~parent =
    let m = Obs.Metrics.create () in
    let shards =
      Spans.record ~parent "service.pool" (fun pool_span ->
          Parallel.Pool.with_pool ~metrics:m ~jobs (fun pool ->
              Parallel.Pool.map pool
                (fun shard ->
                  let w0 = Gc.minor_words () in
                  let sh, dur =
                    Spans.timed ~parent:pool_span "sim.run_shard" (fun _ ->
                        Service.Runner.run_shard c ~shard)
                  in
                  (* the shard runs on one domain: its own counter is exact *)
                  (sh, Gc.minor_words () -. w0, dur))
                (Array.init c.shards Fun.id)))
    in
    let r, merge_s =
      Spans.timed ~parent "service.merge" (fun _ ->
          Service.Report.of_shards (Array.to_list (Array.map (fun (sh, _, _) -> sh) shards)))
    in
    let total f = Array.fold_left (fun acc x -> acc +. f x) 0.0 shards in
    let events = total (fun ((sh : Service.Collector.shard), _, _) -> float_of_int sh.steps) in
    let sent = total (fun ((sh : Service.Collector.shard), _, _) -> float_of_int sh.sent) in
    let words = total (fun (_, w, _) -> w) in
    let busy = Array.map (fun (_, _, d) -> d) shards in
    let busy_max = Array.fold_left Float.max 0.0 busy in
    let busy_min = Array.fold_left Float.min infinity busy in
    {
      outcome = outcome r;
      layers =
        [
          ("sim.events", events);
          ("sim.sent", sent);
          ("sim.events_per_s", ratio events (Array.fold_left ( +. ) 0.0 busy));
          ("sim.words_per_event", ratio words events);
          ("sim.msgs_per_decision", ratio sent (float_of_int r.decided));
          ("service.shard_s.max", busy_max);
          ("service.shard_imbalance", ratio busy_max busy_min);
          ("service.merge_s", merge_s);
          ("service.peak_inflight", float_of_int r.peak_inflight_max);
          ("service.learns_per_decision", ratio (float_of_int r.learns) (float_of_int r.decided));
        ]
        @ pool_layers m;
      extra_s = 0.0;
    }
  in
  (* Deterministic report fields must not depend on [jobs]: jobs=2 spreads
     the four shards over two domains. *)
  let check ~cores =
    if cores < 2 then []
    else begin
      let a = run ~jobs:1 c and b = run ~jobs:2 c in
      let show (r : Service.Report.t) = Flp_json.to_string (Service.Report.to_json r) in
      (outcome a).errors
      @
      if show a = show b then []
      else
        mismatch "report differs between jobs=1 and jobs=2 (decided %d/%d, p50 %g/%g, p99 %g/%g)"
          a.decided b.decided a.p50 b.p50 a.p99 b.p99
    end
  in
  { call; traced_call; check }

let workloads =
  [
    { name = "lemma2-race3"; jobs = 2; work_unit = "configs interned"; setup = lemma2 ~jobs:2 };
    { name = "lemma3-race3"; jobs = 1; work_unit = "(C, e) pairs checked"; setup = lemma3 ~jobs:1 };
    {
      name = "service-classic-open";
      jobs = 1;
      work_unit = "decrees decided";
      setup = classic_open ~jobs:1;
    };
  ]

(* ---- Metrics ---- *)

let end_to_end_units = [ ("setup_s", "s"); ("work_per_s", "1/s"); ("peak_rss_mb", "MB") ]

(* Every per-layer metric, with its unit.  A workload that does not use a
   layer reports 0 for it. *)
let per_layer_units =
  [
    ("explore.configs", "count");
    ("explore.edges", "count");
    ("explore.words_per_edge", "words");
    ("explore.new_per_edge", "ratio");
    ("explore.probes_per_edge", "ratio");
    ("explore.packed_bytes_per_config", "B");
    ("explore.busy_s", "s");
    ("valency.busy_s", "s");
    ("lemma3.root_s", "s");
    ("lemma3.pairs_s", "s");
    ("lemma3.pairs", "count");
    ("pool.busy_s", "s");
    ("pool.idle_s", "s");
    ("pool.idle_share", "ratio");
    ("pool.batches", "count");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_words", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("sim.events", "count");
    ("sim.sent", "count");
    ("sim.events_per_s", "1/s");
    ("sim.words_per_event", "words");
    ("sim.msgs_per_decision", "ratio");
    ("service.shard_s.max", "s");
    ("service.shard_imbalance", "ratio");
    ("service.merge_s", "s");
    ("service.peak_inflight", "count");
    ("service.learns_per_decision", "ratio");
    ("self_s.bench", "s");
    ("self_s.flp.explore", "s");
    ("self_s.flp.valency", "s");
    ("self_s.flp.lemma", "s");
    ("self_s.service.pool", "s");
    ("self_s.sim.run_shard", "s");
    ("self_s.service.merge", "s");
    ("trace.untraced_work_per_s", "1/s");
    ("trace.traced_work_per_s", "1/s");
    ("trace.overhead_work_per_s", "1/s");
  ]

(* Counters that should repeat exactly from one traced call to the next;
   the run reports which of them did. *)
let counters =
  [
    "explore.configs"; "explore.edges"; "explore.words_per_edge"; "lemma3.pairs";
    "pool.batches"; "gc.minor_words"; "gc.promoted_words"; "gc.major_words"; "gc.minor_collections";
    "gc.major_collections"; "sim.events"; "sim.sent"; "sim.words_per_event";
    "service.peak_inflight";
  ]

(* High-water resident set of this process. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      let words = (Gc.quick_stat ()).Gc.top_heap_words in
      float_of_int (words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* ---- Harness ---- *)

type totals = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let account tot (o : outcome) =
  tot.attempted <- tot.attempted + o.attempted;
  tot.failed <- tot.failed + o.failed;
  tot.errors <- tot.errors @ o.errors

(* Repeat [f] until [seconds] are spent, without starting a call that the
   last one's duration says would overrun; at least [min_calls] calls.
   Returns each call's result in order. *)
let repeat_for ~seconds ~min_calls f =
  let t0 = Obs.Clock.now () in
  let rec go acc n last =
    let spent = Obs.Clock.elapsed t0 in
    if n >= min_calls && spent +. last > seconds then List.rev acc
    else begin
      let c0 = Obs.Clock.now () in
      let r = f () in
      go (r :: acc) (n + 1) (Obs.Clock.elapsed c0)
    end
  in
  go [] 0 0.0

(* Set-up done [setups] times in a row, then the untraced phase on the
   last instance.  Set-ups go first, not between calls, so that the
   process's memory high-water does not depend on where in the GC's cycle
   a set-up lands.  Returns the set-up samples, the rate over the timed
   calls and the instance. *)
let untraced_phase w ~smoke ~seed ~setups tot ~seconds ~min_calls =
  let samples, inst =
    List.split
      (List.init setups (fun _ ->
           let t0 = Obs.Clock.now () in
           let inst = w.setup ~smoke ~seed in
           (Obs.Clock.elapsed t0, inst)))
  in
  let inst = List.nth inst (setups - 1) in
  Printf.printf "# setup_s samples: %s\n%!"
    (String.concat " " (List.map (Printf.sprintf "%.4f") samples));
  let calls =
    repeat_for ~seconds ~min_calls (fun () ->
        let t0 = Obs.Clock.now () in
        let o = inst.call () in
        let dt = Obs.Clock.elapsed t0 in
        account tot o;
        (o.work, dt))
  in
  Printf.printf "# untraced: %d calls, wall_s per call %s (not gated: the reciprocal of work_per_s)\n"
    (List.length calls)
    (String.concat " " (List.map (fun (_, dt) -> Printf.sprintf "%.4f" dt) calls));
  (samples, rate calls, inst)

let traced_phase inst tot ~seconds ~min_calls =
  let calls =
    repeat_for ~seconds ~min_calls (fun () ->
        Spans.record "bench" (fun id ->
            let t0 = Obs.Clock.now () in
            let t, gc = with_gc (fun () -> inst.traced_call ~parent:id) in
            let dt = Obs.Clock.elapsed t0 -. t.extra_s in
            account tot t.outcome;
            ((t.outcome.work, dt), t.layers @ gc_layers gc)))
  in
  let n = List.length calls in
  let values name = List.filter_map (fun (_, layers) -> List.assoc_opt name layers) calls in
  let self = Spans.self_by_name (Spans.all ()) in
  let self_per_call name =
    Option.value ~default:0.0 (Hashtbl.find_opt self name) /. float_of_int n
  in
  let busy name =
    let spans = List.filter (fun (s : Spans.span) -> s.name = name) (Spans.all ()) in
    sum_by Spans.dur spans /. float_of_int n
  in
  let measured =
    List.map (fun (name, _) -> (name, median (values name))) per_layer_units
    |> List.map (fun (name, v) ->
           match name with
           | "explore.busy_s" -> (name, busy "flp.explore")
           | "valency.busy_s" -> (name, busy "flp.valency")
           | _ when String.starts_with ~prefix:"self_s." name ->
               (name, self_per_call (String.sub name 7 (String.length name - 7)))
           | _ -> (name, v))
  in
  let repeat, vary =
    List.filter (fun name -> values name <> []) counters
    |> List.partition (fun name ->
           match values name with [] -> true | v :: vs -> List.for_all (Float.equal v) vs)
  in
  Printf.printf "# traced: %d calls; counters repeating exactly: %s\n" n
    (String.concat " " repeat);
  Printf.printf "# traced: counters that varied between calls: %s\n"
    (match vary with [] -> "none" | v -> String.concat " " v);
  (rate (List.map fst calls), measured)

let metric_json (name, unit, value) =
  (name, Flp_json.Obj [ ("value", Flp_json.Float value); ("unit", Flp_json.Str unit) ])

let run ~workload ~seed ~seconds ~trace ~smoke ~spans ~cores ~rev =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
        fail_usage "unknown workload %S (one of: %s)" workload
          (String.concat ", " (List.map (fun w -> w.name) workloads))
  in
  Printf.printf "# manifest: %s\n%!"
    (Flp_json.to_string
       (Flp_json.Obj
          [
            ("workload", Flp_json.Str w.name);
            ("jobs", Flp_json.Int w.jobs);
            ("nproc", Flp_json.Int cores);
            ("ocaml", Flp_json.Str Sys.ocaml_version);
            ("git_rev", Flp_json.Str rev);
            ("seed", Flp_json.Int seed);
            ("seconds", Flp_json.Float seconds);
            ("trace", Flp_json.Bool trace);
            ("smoke", Flp_json.Bool smoke);
            ("work_unit", Flp_json.Str w.work_unit);
          ]));
  if w.jobs > cores then
    fail_usage "%s runs at jobs=%d but the host has %d core(s): refusing to oversubscribe"
      w.name w.jobs cores;
  let tot = { attempted = 0; failed = 0; errors = [] } in
  let min_calls = if smoke then 1 else 3 in
  let metrics, inst =
    if not trace then begin
      let setups = if smoke then 2 else 7 in
      let samples, work_per_s, inst =
        untraced_phase w ~smoke ~seed ~setups tot ~seconds ~min_calls
      in
      ( List.map2
          (fun (name, unit) v -> (name, unit, v))
          end_to_end_units
          [ median samples; work_per_s; peak_rss_mb () ],
        inst )
    end
    else begin
      let half = seconds /. 2.0 in
      let _, untraced, inst =
        untraced_phase w ~smoke ~seed ~setups:1 tot ~seconds:half ~min_calls:2
      in
      let traced, layers = traced_phase inst tot ~seconds:half ~min_calls:2 in
      let layers =
        List.map
          (fun (name, v) ->
            match name with
            | "trace.untraced_work_per_s" -> (name, untraced)
            | "trace.traced_work_per_s" -> (name, traced)
            | "trace.overhead_work_per_s" -> (name, traced -. untraced)
            | _ -> (name, v))
          layers
      in
      Printf.printf
        "# GC scope: gc.* and explore.words_per_edge come from Gc.quick_stat after a forced minor collection (every domain, the forced collections included); sim.words_per_event from Gc.minor_words inside each shard's own domain\n";
      Option.iter
        (fun path ->
          Spans.write path;
          Printf.printf "# spans: %d written to %s\n" (List.length (Spans.all ())) path)
        spans;
      (List.map (fun (name, v) -> (name, List.assoc name per_layer_units, v)) layers, inst)
    end
  in
  tot.errors <- tot.errors @ inst.check ~cores;
  let correct = tot.errors = [] in
  List.iter (fun e -> Printf.printf "# gate mismatch: %s\n" e) tot.errors;
  Printf.printf "# gate: %s\n" (if correct then "passed" else "FAILED");
  print_endline
    (Flp_json.to_string
       (Flp_json.Obj
          [
            ("correct", Flp_json.Bool correct);
            ("attempted", Flp_json.Int tot.attempted);
            ("failed", Flp_json.Int tot.failed);
            ("metrics", Flp_json.Obj (List.map metric_json metrics));
          ]));
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let smoke = ref false and spans = ref "" and rev = ref "unknown" in
  let cores = ref (Domain.recommended_domain_count ()) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (service workloads)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--smoke", Arg.Set smoke, " shrink every workload to a fraction of a second");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
      ("--cores", Arg.Set_int cores, "N the host's core count (default: the runtime's)");
      ("--git-rev", Arg.Set_string rev, "REV recorded in the manifest");
    ]
  in
  Arg.parse specs (fun a -> fail_usage "unexpected argument %S" a) "bench.exe --workload NAME [options]";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  if !seconds <= 0.0 then fail_usage "--seconds must be positive";
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~smoke:!smoke
    ~spans:(if !spans = "" then None else Some !spans)
    ~cores:!cores ~rev:!rev
