open Flp

module Race2 = struct
  include (val Zoo.race ~cap:2 : Protocol.S)
end

module A2 = Analysis.Make (Race2)

module Race3 = struct
  include (val Zoo.race ~cap:3 : Protocol.S)
end

module A3 = Analysis.Make (Race3)

module AW = struct
  include (val Zoo.and_wait : Protocol.S)
end

module AA = Analysis.Make (AW)

let v001 = [| Value.Zero; Value.Zero; Value.One |]

let test_requires_bivalent_initial () =
  (* and-wait initial configurations are univalent: the adversary must refuse *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (AA.Adversary.run ~max_configs:10_000 ~stages:1 [| Value.Zero; Value.One |]);
       false
     with Invalid_argument _ -> true)

let test_race2_stages () =
  let run = A2.Adversary.run ~max_configs:100_000 ~stages:50 v001 in
  (* measured: three bivalence-preserving stages before the cap bites *)
  Alcotest.(check bool) "at least 3 stages" true (List.length run.stages >= 3);
  match run.outcome with
  | A2.Adversary.Completed -> Alcotest.fail "a capped protocol cannot stay bivalent forever"
  | A2.Adversary.Stuck { stage; reason } ->
      Alcotest.(check int) "stuck right after the last stage" (List.length run.stages + 1) stage;
      Alcotest.(check bool) "explains the Lemma 3 failure" true
        (String.length reason > 0)

let test_more_cap_more_stages () =
  let r2 = A2.Adversary.run ~max_configs:100_000 ~stages:50 v001 in
  let r3 = A3.Adversary.run ~max_configs:600_000 ~stages:50 v001 in
  Alcotest.(check bool) "deeper horizon sustains more stages" true
    (List.length r3.stages > List.length r2.stages)

let test_stage_discipline () =
  (* The paper's admissibility discipline: stages are led by processes in
     round-robin queue order, and each stage ends with its forced event. *)
  let run = A2.Adversary.run ~max_configs:100_000 ~stages:50 v001 in
  List.iteri
    (fun i (s : A2.Adversary.stage) ->
      Alcotest.(check int) "round-robin head" (i mod 3) s.process;
      match List.rev s.schedule with
      | last :: _ ->
          Alcotest.(check bool) "forced event last" true
            (A2.C.event_equal last s.forced_event);
          Alcotest.(check int) "forced event belongs to the head" s.process
            s.forced_event.dest
      | [] -> Alcotest.fail "empty stage")
    run.stages

let test_trace_replays_bivalent () =
  (* replay the full schedule; every stage boundary must be bivalent and
     undecided *)
  let run = A2.Adversary.run ~max_configs:100_000 ~stages:50 v001 in
  let g = A2.Explore.explore ~max_configs:100_000 (A2.C.initial v001) in
  let valences = A2.Valency.classify g in
  let c = ref (A2.C.initial v001) in
  List.iter
    (fun (s : A2.Adversary.stage) ->
      c := A2.C.apply_schedule !c s.schedule;
      (match A2.Explore.id_of g !c with
      | Some id ->
          Alcotest.(check bool) "stage ends bivalent" true
            (A2.Valency.equal_valence valences.(id) A2.Valency.Bivalent)
      | None -> Alcotest.fail "trace left the reachable graph");
      Alcotest.(check (list int)) "no decision during the run" []
        (List.map Value.to_int (A2.C.decision_values !c)))
    run.stages

let test_steps_counted () =
  let run = A2.Adversary.run ~max_configs:100_000 ~stages:50 v001 in
  let total = List.fold_left (fun a (s : A2.Adversary.stage) -> a + List.length s.schedule) 0 run.stages in
  Alcotest.(check int) "steps = schedule lengths" total run.steps

(* race:2 from 001, measured with the reference walk below. *)
let test_race2_pins () =
  let run = A2.Adversary.run ~max_configs:100_000 ~stages:50 v001 in
  Alcotest.(check int) "stages" 3 (List.length run.stages);
  Alcotest.(check int) "steps" 5 run.steps;
  match run.outcome with
  | A2.Adversary.Stuck { stage; _ } -> Alcotest.(check int) "stuck at" 4 stage
  | A2.Adversary.Completed -> Alcotest.fail "expected to get stuck"

(* Reference oracle: the stage search as [Adversary.run] ran it before the
   flat graph index — a BFS over [Explore.succ] with fresh parent arrays —
   returning the shortest avoid-[e] prefix to a bivalent [e]-successor. *)
let oracle_stage g valences start e =
  let n = A2.Explore.size g in
  let parent = Array.make n (-2) in
  let parent_event = Array.make n None in
  let queue = Queue.create () in
  parent.(start) <- -1;
  Queue.push start queue;
  let target = ref None in
  while !target = None && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    (match
       List.find_map
         (fun (ev, t) -> if A2.C.event_equal ev e then Some t else None)
         (A2.Explore.succ g v)
     with
    | Some t when A2.Valency.equal_valence valences.(t) A2.Valency.Bivalent -> target := Some v
    | Some _ | None -> ());
    if !target = None then
      List.iter
        (fun (ev, t) ->
          if (not (A2.C.event_equal ev e)) && parent.(t) = -2 then begin
            parent.(t) <- v;
            parent_event.(t) <- Some ev;
            Queue.push t queue
          end)
        (A2.Explore.succ g v)
  done;
  let rec build acc v =
    match (parent.(v), parent_event.(v)) with
    | -1, _ | _, None -> acc
    | p, Some ev -> build (ev :: acc) p
  in
  Option.map (build []) !target

(* Every stage's schedule is the oracle's prefix plus the forced event, and
   the stage the run got stuck at has no oracle prefix either.  The forced
   event is recomputed from the paper's discipline: the head of the process
   queue receives its earliest pending message, else the null message. *)
let test_stages_match_oracle () =
  let run = A2.Adversary.run ~max_configs:100_000 ~stages:50 v001 in
  let g = A2.Explore.explore ~max_configs:100_000 (A2.C.initial v001) in
  let valences = A2.Valency.classify g in
  let show evs = List.map (Format.asprintf "%a" A2.C.pp_event) evs in
  let id_of c =
    match A2.Explore.id_of g c with Some id -> id | None -> Alcotest.fail "left the graph"
  in
  let forced pending p =
    match List.find_opt (fun (dest, _) -> dest = p) pending with
    | Some (_, m) -> A2.C.deliver p m
    | None -> A2.C.null_event p
  in
  let step (c, pending) (e : A2.C.event) =
    let c', sends = A2.C.apply_with_sends c e in
    let rec remove = function
      | [] -> []
      | (d, m) :: rest ->
          if A2.C.event_equal e (A2.C.deliver d m) then rest else (d, m) :: remove rest
    in
    (c', (if Option.is_none e.msg then pending else remove pending) @ sends)
  in
  let c, pending =
    List.fold_left
      (fun (c, pending) (s : A2.Adversary.stage) ->
        let e = forced pending s.process in
        Alcotest.(check (list string)) "forced event" (show [ e ]) (show [ s.forced_event ]);
        (match oracle_stage g valences (id_of c) e with
        | Some prefix ->
            Alcotest.(check (list string)) "stage schedule" (show (prefix @ [ e ]))
              (show s.schedule)
        | None -> Alcotest.fail "oracle finds no stage");
        List.fold_left step (c, pending) s.schedule)
      (A2.C.initial v001, [])
      run.stages
  in
  let next = List.length run.stages mod 3 in
  Alcotest.(check bool) "stuck stage has no oracle prefix" true
    (Option.is_none (oracle_stage g valences (id_of c) (forced pending next)))

let () =
  Alcotest.run "adversary"
    [
      ( "adversary",
        [
          Alcotest.test_case "requires bivalent initial" `Quick test_requires_bivalent_initial;
          Alcotest.test_case "race:2 sustains stages" `Quick test_race2_stages;
          Alcotest.test_case "deeper cap, more stages" `Slow test_more_cap_more_stages;
          Alcotest.test_case "stage discipline" `Quick test_stage_discipline;
          Alcotest.test_case "trace replays bivalent" `Quick test_trace_replays_bivalent;
          Alcotest.test_case "steps counted" `Quick test_steps_counted;
          Alcotest.test_case "race:2 pins" `Quick test_race2_pins;
          Alcotest.test_case "stages match the reference walk" `Quick
            test_stages_match_oracle;
        ] );
    ]
