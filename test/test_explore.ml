(* Tests for the adversarial exploration subsystem: adversity plans and
   their stable text form, the engine's link-fault injection, the bounded
   explorer with its greedy shrinker, findings replayed from spec text,
   and the property-based checks the explorer rests on (causal order under
   arbitrary adversity, differential agreement across the three ETOB
   stacks). *)

open Simulator
open Ec_core
open Explore
module Adversity = Harness.Adversity
module Builder = Harness.Builder
module Scenario = Harness.Scenario
module Stacks = Harness.Stacks

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Adversity: text form                                                *)
(* ------------------------------------------------------------------ *)

let full_plan =
  [ Adversity.Crash { proc = 2; at = 40 };
    Adversity.Partition { left = [ 0; 1 ]; from_time = 10; until_time = 50 };
    Adversity.Delay_spike
      { link = Some (1, 2); from_time = 5; until_time = 25; factor = 4 };
    Adversity.Delay_spike
      { link = None; from_time = 30; until_time = 42; factor = 2 };
    Adversity.Drop { from_time = 20; until_time = 26; pct = 75 };
    Adversity.Duplicate { from_time = 12; until_time = 18; copies = 2 };
    Adversity.Omega_flap { until_time = 60; period = 3 } ]

let test_adversity_roundtrip () =
  match Adversity.of_lines (Adversity.to_lines full_plan) with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok plan ->
    Alcotest.(check bool) "all spec kinds roundtrip" true (plan = full_plan)

let test_adversity_rejects_garbage () =
  (match Adversity.of_line "crash p=zero at=40" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad int accepted");
  match Adversity.of_line "meteor at=40" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown adversity accepted"

let prop_adversity_roundtrip =
  QCheck.Test.make ~name:"adversity: text form roundtrips" ~count:300
    (Qgen.plan_arb ~n:4 ~deadline:240)
    (fun plan ->
       match Adversity.of_lines (Adversity.to_lines plan) with
       | Ok plan' -> plan' = plan
       | Error _ -> false)

(* Weakening must strictly reduce the plan's reach: never later, never
   stronger — so the shrinker terminates and results stay minimal. *)
let prop_weaken_never_extends_settle =
  QCheck.Test.make ~name:"adversity: weaken never raises settle time" ~count:300
    (Qgen.plan_arb ~n:4 ~deadline:240)
    (fun plan ->
       let settle = Adversity.settle_time ~base_max:3 plan in
       List.for_all
         (fun spec ->
            List.for_all
              (fun weaker ->
                 Adversity.settle_time ~base_max:3 [ weaker ] <= settle)
              (Adversity.weaken spec))
         plan)

(* ------------------------------------------------------------------ *)
(* Link faults in the engine                                           *)
(* ------------------------------------------------------------------ *)

let fault_setup faults =
  { (Stacks.default ~n:3 ~deadline:100) with
    faults;
    delay = Net.uniform ~min:1 ~max:3 }

let fault_inputs = Stacks.spread_posts ~n:3 ~count:6 ~from_time:8 ~every:3

let run_with_faults faults =
  Scenario.run_etob ~inputs:fault_inputs (fault_setup faults)
    Stacks.Algorithm_5

let test_no_faults_instantiates_to_none () =
  (match Net.instantiate_faults Net.no_faults with
   | None -> ()
   | Some _ -> Alcotest.fail "no_faults must instantiate to None");
  match Net.instantiate_faults (Net.compose_faults [ Net.no_faults ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "compose of no_faults must stay no_faults"

let test_drop_window_drops () =
  let clean = run_with_faults Net.no_faults in
  let dropped =
    run_with_faults (Net.drop_window ~from_time:0 ~until_time:40 100)
  in
  Alcotest.(check int) "clean run drops nothing" 0 (Trace.dropped clean);
  Alcotest.(check bool) "faulted run drops" true (Trace.dropped dropped > 0);
  Alcotest.(check bool) "fewer deliveries" true
    (Trace.delivered dropped < Trace.delivered clean)

let test_duplicate_window_duplicates () =
  let clean = run_with_faults Net.no_faults in
  let dup =
    run_with_faults (Net.duplicate_window ~from_time:0 ~until_time:40 2)
  in
  Alcotest.(check bool) "more deliveries than sends" true
    (Trace.delivered dup > Trace.sent dup);
  Alcotest.(check bool) "more deliveries than the clean run" true
    (Trace.delivered dup > Trace.delivered clean)

let test_fault_runs_deterministic () =
  let faults =
    Net.compose_faults
      [ Net.drop_window ~from_time:10 ~until_time:30 50;
        Net.duplicate_window ~from_time:20 ~until_time:45 1 ]
  in
  let show t = Format.asprintf "%a" Trace.pp t in
  Alcotest.(check string) "same config, same trace"
    (show (run_with_faults faults))
    (show (run_with_faults faults))

let test_compose_faults_drop_wins () =
  let always f = Net.fault_of_fn (fun ~src:_ ~dst:_ ~now:_ ~rng:_ -> f) in
  let composed =
    Net.compose_faults [ always (Net.Duplicate 2); always Net.Drop ]
  in
  match Net.instantiate_faults composed with
  | None -> Alcotest.fail "composed model is not no_faults"
  | Some fn ->
    let rng = Rng.create 1 in
    (match Net.fault_of fn ~src:0 ~dst:1 ~now:5 ~rng with
     | Net.Drop -> ()
     | _ -> Alcotest.fail "Drop must win over Duplicate")

(* ------------------------------------------------------------------ *)
(* Explorer                                                            *)
(* ------------------------------------------------------------------ *)

let target mutation = { Explorer.default_target with Explorer.mutation }

(* A finding as the explorer writes it: spec text with its digest and
   violations recorded. *)
let spec_text t (o : Explorer.outcome) =
  Builder.to_string ~digest:o.Explorer.digest ~violations:o.Explorer.violations
    (Explorer.builder_of t ~seed:o.Explorer.seed o.Explorer.plan)

(* Find, shrink and replay one mutant from its spec text: the replay must
   reproduce the recorded digest.  Returns the shrunk finding. *)
let find_and_replay ~name t =
  let e = Explorer.explore t ~seed:1 ~budget:200 ~max_adversities:4 () in
  match e.Explorer.found with
  | None -> Alcotest.failf "mutant %s not found within 200 plans" name
  | Some o ->
    let shrunk = Explorer.shrink t o in
    Alcotest.(check bool) (name ^ ": still violates") true
      (shrunk.Explorer.violations <> []);
    Alcotest.(check bool) (name ^ ": shrunk to <= 3 adversities") true
      (Adversity.size shrunk.Explorer.plan <= 3);
    (match Builder.replay (spec_text t shrunk) with
     | Ok o ->
       Alcotest.(check string) (name ^ ": digest reproduced")
         shrunk.Explorer.digest o.Builder.digest
     | Error e -> Alcotest.failf "%s: replay: %s" name e);
    shrunk

let test_explore_faithful_clean () =
  let e = Explorer.explore (target None) ~seed:1 ~budget:60 ~max_adversities:4 () in
  (match e.Explorer.found with
   | None -> ()
   | Some o ->
     Alcotest.failf "faithful Algorithm 5 flagged: %s; plan: %s"
       (String.concat "; " o.Explorer.violations)
       (String.concat "; " (Adversity.to_lines o.Explorer.plan)));
  Alcotest.(check int) "whole budget consumed" 60 e.Explorer.plans_run

let test_explore_parallel_matches_sequential () =
  let mutant = target (Some Etob_omega.Skip_dependency_wait) in
  let run domains =
    Explorer.explore ~domains mutant ~seed:1 ~budget:120 ~max_adversities:4 ()
  in
  match (run 1).Explorer.found, (run 3).Explorer.found with
  | Some a, Some b ->
    Alcotest.(check int) "same engine seed" a.Explorer.seed b.Explorer.seed;
    Alcotest.(check bool) "same plan" true (a.Explorer.plan = b.Explorer.plan)
  | _ -> Alcotest.fail "mutant not found within budget"

(* The mutation-test harness: every seeded single-decision bug of
   Algorithm 5 must be caught within a smoke-sized budget, shrink to at
   most 3 adversities, and leave spec text that replays byte-identically. *)
let test_explore_finds_all_mutants () =
  List.iter
    (fun m ->
       ignore (find_and_replay ~name:(Etob_omega.mutation_name m) (target (Some m))))
    Etob_omega.all_mutations

let test_repro_replay_rejects_wrong_digest () =
  let t = target (Some Etob_omega.Drop_graph_union) in
  let e = Explorer.explore t ~seed:1 ~budget:200 ~max_adversities:4 () in
  match e.Explorer.found with
  | None -> Alcotest.fail "mutant not found"
  | Some o ->
    let tampered =
      { o with Explorer.digest = String.make 32 '0' }
    in
    (match Builder.replay (spec_text t tampered) with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "digest mismatch must fail the replay")

(* The anti-entropy namespace: the skip-digest mutant under the watchdog
   is found, shrunk and replayed from its spec text like the others. *)
let test_explore_finds_ae_mutant () =
  let t =
    { Explorer.default_target with
      Explorer.ae = true;
      watchdog = true;
      ae_mutation = Some Anti_entropy.Skip_digest }
  in
  ignore (find_and_replay ~name:"skip-digest" t)

(* [target_of] inverts [builder_of] on every explorer target: all three
   mutation namespaces, recovery, anti-entropy and the watchdog on and
   off. *)
let target_gen =
  let open QCheck.Gen in
  let some l = oneofl (None :: List.map Option.some l) in
  let* impl =
    oneofl
      [ Stacks.Algorithm_5; Stacks.Paxos_baseline; Stacks.Algorithm_1_over_4 ]
  in
  let* mutation = some Etob_omega.all_mutations in
  let* rmutation = some Recoverable.all_mutations in
  let* ae_mutation = some Anti_entropy.all_mutations in
  let* recovery = bool in
  let* ae = bool in
  let* watchdog = bool in
  let* n = int_range 2 6 in
  let* deadline = int_range 60 400 in
  let* posts = int_range 0 20 in
  let* timer_period = int_range 1 4 in
  let* base_min = int_range 1 3 in
  let* span = int_range 0 3 in
  let* seed = int_range 0 999 in
  return
    ( { Explorer.impl;
        mutation;
        n;
        deadline;
        posts;
        timer_period;
        base_min;
        base_max = base_min + span;
        recovery;
        rmutation;
        ae;
        ae_mutation;
        watchdog },
      seed )

let prop_target_of_inverts_builder_of =
  QCheck.Test.make ~name:"explorer: target_of inverts builder_of" ~count:300
    (QCheck.make
       ~print:(fun (t, seed) -> Builder.to_string (Explorer.builder_of t ~seed []))
       target_gen)
    (fun (t, seed) ->
       let b = Explorer.builder_of t ~seed [] in
       match Explorer.target_of b with
       | Ok t' -> Explorer.builder_of t' ~seed [] = b
       | Error msg -> QCheck.Test.fail_reportf "target_of rejected: %s" msg)

(* The explorer's target-to-builder mapping is the legacy reader's
   oracle: an explorer target written as a legacy repro (header lines in
   any order, any of them left out to take its legacy default) reads back
   as exactly the builder [builder_of] makes of it, over all three
   mutation namespaces, recovery/anti-entropy/watchdog on and off, and
   plans with and without recovery adversities. *)
let legacy_text (t : Explorer.target) ~seed ~keep ~order plan =
  let mutant name = function None -> "none" | Some m -> name m in
  let on_off b = if b then "on" else "off" in
  let headers =
    [ "impl " ^ Builder.stack_name (Builder.Etob t.Explorer.impl);
      "mutant " ^ mutant Etob_omega.mutation_name t.Explorer.mutation;
      "rmutant " ^ mutant Recoverable.mutation_name t.Explorer.rmutation;
      "ae-mutant " ^ mutant Anti_entropy.mutation_name t.Explorer.ae_mutation;
      Printf.sprintf "n %d" t.Explorer.n;
      Printf.sprintf "seed %d" seed;
      Printf.sprintf "deadline %d" t.Explorer.deadline;
      Printf.sprintf "timer-period %d" t.Explorer.timer_period;
      Printf.sprintf "posts %d" t.Explorer.posts;
      Printf.sprintf "base-min %d" t.Explorer.base_min;
      Printf.sprintf "base-max %d" t.Explorer.base_max;
      "recovery " ^ on_off t.Explorer.recovery;
      "ae " ^ on_off t.Explorer.ae;
      "watchdog " ^ on_off t.Explorer.watchdog ]
  in
  let kept =
    List.filteri (fun i _ -> List.nth keep i) (List.combine order headers)
  in
  String.concat "\n"
    ([ Builder.legacy_header ]
     @ List.map snd (List.sort compare kept)
     @ [ Printf.sprintf "plan %d" (List.length plan) ]
     @ Adversity.to_lines plan
     @ [ "end" ])

let prop_legacy_reads_as_builder_of =
  let gen =
    let open QCheck.Gen in
    let* t, seed = target_gen in
    let* keep = list_repeat 14 bool in
    let* order = list_repeat 14 int in
    (* An omitted header takes the legacy default: the default target's
       field, seed 0. *)
    let pick i v d = if List.nth keep i then v else d in
    let d = Explorer.default_target in
    let t =
      { Explorer.impl = pick 0 t.Explorer.impl d.Explorer.impl;
        mutation = pick 1 t.Explorer.mutation d.Explorer.mutation;
        rmutation = pick 2 t.Explorer.rmutation d.Explorer.rmutation;
        ae_mutation = pick 3 t.Explorer.ae_mutation d.Explorer.ae_mutation;
        n = pick 4 t.Explorer.n d.Explorer.n;
        deadline = pick 6 t.Explorer.deadline d.Explorer.deadline;
        timer_period = pick 7 t.Explorer.timer_period d.Explorer.timer_period;
        posts = pick 8 t.Explorer.posts d.Explorer.posts;
        base_min = pick 9 t.Explorer.base_min d.Explorer.base_min;
        base_max = pick 10 t.Explorer.base_max d.Explorer.base_max;
        recovery = pick 11 t.Explorer.recovery d.Explorer.recovery;
        ae = pick 12 t.Explorer.ae d.Explorer.ae;
        watchdog = pick 13 t.Explorer.watchdog d.Explorer.watchdog }
    in
    let seed = pick 5 seed 0 in
    let* plan =
      oneof
        [ return [];
          Qgen.plan_gen ~n:t.Explorer.n ~deadline:t.Explorer.deadline;
          Qgen.recovery_plan_gen ~n:t.Explorer.n ~deadline:t.Explorer.deadline ]
    in
    return (legacy_text t ~seed ~keep ~order plan, (t, seed, plan))
  in
  QCheck.Test.make ~name:"explorer: legacy repro text reads as builder_of"
    ~count:300
    (QCheck.make ~print:fst gen)
    (fun (text, (t, seed, plan)) ->
       match Builder.of_string text with
       | Ok b ->
         Builder.to_lines b = Builder.to_lines (Explorer.builder_of t ~seed plan)
       | Error msg -> QCheck.Test.fail_reportf "legacy parse: %s" msg)

(* A spec exploration cannot express is rejected with the clause named,
   instead of being explored as a different run. *)
let test_target_of_names_the_clause () =
  let spec ?(stack = "recoverable") extra =
    String.concat "\n"
      ([ "ecsim-spec v1"; "stack " ^ stack; "n 4"; "seed 3";
         "deadline 240"; "timer-period 2"; "delay uniform min=1 max=3" ]
       @ extra @ [ "check etob tau=auto"; "plan 0"; "end" ])
  in
  let verdict text =
    match Builder.of_string text with
    | Error msg -> Alcotest.failf "spec parse: %s" msg
    | Ok b -> Explorer.target_of b
  in
  (match verdict (spec [ "workload auto count=12 stretch=on"; "budget 50" ]) with
   | Ok t -> Alcotest.(check bool) "recovery target" true t.Explorer.recovery
   | Error msg -> Alcotest.failf "expressible spec rejected: %s" msg);
  List.iter
    (fun (label, stack, extra, clause) ->
       match verdict (spec ~stack extra) with
       | Ok _ -> Alcotest.failf "%s: accepted" label
       | Error msg ->
         Alcotest.(check bool)
           (Printf.sprintf "%s: %S names %S" label msg clause)
           true (contains msg clause))
    [ ("stretch off", "recoverable", [ "workload auto count=12 stretch=off" ],
       "stack recoverable");
      ("omega clause", "recoverable",
       [ "omega elected timeout=6"; "workload auto count=12 stretch=on" ],
       "omega elected timeout=6");
      ("posts workload", "alg5", [ "workload posts count=6 from=8 every=4" ],
       "workload posts count=6 from=8 every=4") ]

(* ------------------------------------------------------------------ *)
(* Recovery: explorer, repro format, parse errors                      *)
(* ------------------------------------------------------------------ *)

(* The recovery analogue of the mutation-test harness: restarting with
   amnesia must be caught within a smoke-sized budget, shrink small, and
   leave replayable spec text that reads back as the same recovery
   target. *)
let test_explore_finds_recovery_mutants () =
  List.iter
    (fun m ->
       let name = Recoverable.mutation_name m in
       let t =
         { Explorer.default_target with
           Explorer.recovery = true;
           rmutation = Some m }
       in
       let shrunk = find_and_replay ~name t in
       match
         Result.bind (Builder.of_string (spec_text t shrunk)) Explorer.target_of
       with
       | Error e -> Alcotest.failf "%s: target_of: %s" name e
       | Ok t' ->
         Alcotest.(check bool) (name ^ ": recovery survives") true
           t'.Explorer.recovery;
         Alcotest.(check bool) (name ^ ": rmutant survives") true
           (t'.Explorer.rmutation = Some m))
    Recoverable.all_mutations

(* A faithful run under a recovery plan must stay clean — the explorer's
   recovery adversities themselves are not violations. *)
let test_explore_faithful_recovery_clean () =
  let t = { Explorer.default_target with Explorer.recovery = true } in
  let e = Explorer.explore t ~seed:1 ~budget:60 ~max_adversities:4 () in
  match e.Explorer.found with
  | None -> ()
  | Some o ->
    Alcotest.failf "faithful recoverable stack flagged: %s; plan: %s"
      (String.concat "; " o.Explorer.violations)
      (String.concat "; " (Adversity.to_lines o.Explorer.plan))

(* Malformed and truncated legacy repro files fail with the offending
   line named, never an escaping exception. *)
let test_repro_parse_errors_name_the_line () =
  let lines =
    [ "ecsim-explore-repro v1"; "impl alg5"; "mutant none"; "n 4";
      "recovery on"; "rmutant skip-log-replay"; "seed 7"; "deadline 240";
      "timer-period 2"; "posts 12"; "base-min 1"; "base-max 3";
      "digest " ^ String.make 32 'a';
      "violation distinct-broadcasts: something"; "plan 2";
      "crashrec p=1 at=40 until=80"; "disk p=1 kind=torn"; "end" ]
  in
  let text = String.concat "\n" lines in
  (* The well-formed file parses to the recovery builder it describes. *)
  (match Builder.of_string text with
   | Ok b ->
     Alcotest.(check bool) "roundtrip" true
       (b.Builder.plan
        = [ Adversity.Crash_recover { proc = 1; at = 40; recover_at = 80 };
            Adversity.Disk_fault { proc = 1; kind = Persist.Store.Torn_tail } ]
        && Builder.seed_of b = 7
        && b.Builder.stack = Builder.Recoverable { ae = false }
        && b.Builder.rmutation = Some Recoverable.Skip_log_replay)
   | Error e -> Alcotest.failf "well-formed file rejected: %s" e);
  let expect_error label mangled fragment =
    match Builder.of_string mangled with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names the problem (%S)" label msg fragment)
        true (contains msg fragment)
  in
  expect_error "empty file" "" "empty file";
  expect_error "wrong header" "not a repro\nimpl alg5\n" "line 1";
  let mangle i f =
    String.concat "\n" (List.mapi (fun j l -> if j = i then f l else l) lines)
  in
  (* Line 4 is "n 4": break its integer and expect the line number. *)
  expect_error "bad integer" (mangle 3 (fun _ -> "n four")) "line 4";
  expect_error "unknown header" (mangle 6 (fun _ -> "meteor 9")) "line 7";
  (* Claim more plan lines than the file holds. *)
  expect_error "truncated plan"
    (String.concat "\n"
       (List.map (fun l -> if l = "plan 2" then "plan 5" else l) lines))
    "plan section truncated";
  (* Drop the end line. *)
  expect_error "missing end"
    (String.concat "\n" (List.filter (fun l -> l <> "end") lines))
    "missing end";
  (* Damage one adversity line inside the plan section. *)
  expect_error "bad adversity"
    (mangle 15 (fun _ -> "crashrec p=1 at=80 until=40"))
    "line 16"

(* ------------------------------------------------------------------ *)
(* Safety under arbitrary adversity (property-based)                   *)
(* ------------------------------------------------------------------ *)

(* Causal order is a safety claim of Algorithm 5 ("TOB-Causal-Order holds
   at all times"): it may not depend on fairness, so the plans here are
   unclamped — drops that never heal, flapping to the horizon.  Liveness
   properties (validity, convergence) legitimately fail under such plans
   and are not asserted. *)
let prop_causal_order_under_any_plan =
  QCheck.Test.make ~name:"alg5: causal order under arbitrary adversity"
    ~count:60
    QCheck.(
      pair (Qgen.plan_arb ~n:4 ~deadline:240) (pair small_nat Qgen.delay_bounds_arb))
    (fun (plan, (seed, (base_min, base_max))) ->
       let t = { (target None) with Explorer.base_min; base_max } in
       let o = Explorer.run_plan t ~seed plan in
       match o.Explorer.report with
       | None -> false (* the run raised *)
       | Some r ->
         r.Properties.causal_order.Properties.ok
         && r.Properties.no_creation.Properties.ok
         && r.Properties.no_duplication.Properties.ok)

(* The recoverable stack's safety net: under arbitrary downtime windows
   and disk faults (on top of the usual unclamped adversity), the
   faithful stack must never reorder causally, forge, duplicate — or
   reuse a sequence number, which is exactly what the durable log is for.
   Liveness is legitimately lost under such plans and is not asserted. *)
let prop_recovery_safety_under_any_plan =
  QCheck.Test.make
    ~name:"recoverable alg5: safety under arbitrary windows and disk faults"
    ~count:40
    QCheck.(
      pair
        (Qgen.recovery_plan_arb ~n:4 ~deadline:240)
        (pair small_nat Qgen.delay_bounds_arb))
    (fun (plan, (seed, (base_min, base_max))) ->
       let t =
         { (target None) with Explorer.recovery = true; base_min; base_max }
       in
       let o = Explorer.run_plan t ~seed plan in
       match o.Explorer.report with
       | None -> false (* the run raised *)
       | Some r ->
         r.Properties.causal_order.Properties.ok
         && r.Properties.no_creation.Properties.ok
         && r.Properties.no_duplication.Properties.ok
         && r.Properties.distinct_broadcasts.Properties.ok)

(* Random failure patterns stay inside their declared contract. *)
let prop_random_pattern_within_contract =
  QCheck.Test.make ~name:"failures: crash lists build admitted patterns"
    ~count:300
    (Qgen.crash_list_arb ~n:5 ~max_faulty:4 ~horizon:100)
    (fun crashes ->
       let f = Qgen.pattern_of_crashes ~n:5 crashes in
       Failures.admits (Failures.t_resilient 4) f
       && Failures.is_correct f 0
       && List.for_all
            (fun (p, _) -> Failures.is_faulty f p)
            crashes)

(* ------------------------------------------------------------------ *)
(* Differential: the three ETOB stacks agree                           *)
(* ------------------------------------------------------------------ *)

let impls =
  [ Stacks.Algorithm_5; Stacks.Paxos_baseline; Stacks.Algorithm_1_over_4 ]

let final_run impl ~seed =
  let b =
    Explorer.builder_of { Explorer.default_target with Explorer.impl } ~seed []
  in
  let setup = Builder.setup_of b in
  let trace = Scenario.run_etob ~inputs:(Builder.inputs b) setup impl in
  Properties.etob_run_of_trace setup.Stacks.pattern trace

let sorted_ids run proc =
  List.sort compare (List.map App_msg.id (Properties.final_d run proc))

(* Within one stack, every pair of processes orders the common messages
   the same way; across stacks, the delivered sets coincide (the total
   orders themselves may differ — any linearization is legal). *)
let prop_impls_agree_differentially =
  QCheck.Test.make ~name:"etob stacks: orders agree, delivered sets equal"
    ~count:10 QCheck.small_nat
    (fun seed ->
       let runs = List.map (fun impl -> final_run impl ~seed) impls in
       let n = Explorer.default_target.Explorer.n in
       List.for_all
         (fun run ->
            List.for_all
              (fun p ->
                 List.for_all
                   (fun q ->
                      Properties.orders_agree (Properties.final_d run p)
                        (Properties.final_d run q))
                   (List.init n Fun.id))
              (List.init n Fun.id))
         runs
       &&
       match List.map (fun run -> sorted_ids run 0) runs with
       | [] -> false
       | ids :: rest -> List.for_all (fun other -> other = ids) rest)

let test_impls_clean_on_empty_plan () =
  List.iter
    (fun impl ->
       let t = { Explorer.default_target with Explorer.impl } in
       let o = Explorer.run_plan t ~seed:1 [] in
       Alcotest.(check (list string))
         (Builder.stack_name (Builder.Etob impl) ^ ": clean on the empty plan")
         []
         o.Explorer.violations)
    impls

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "explore"
    [ ("adversity",
       [ Alcotest.test_case "roundtrip all kinds" `Quick test_adversity_roundtrip;
         Alcotest.test_case "rejects garbage" `Quick test_adversity_rejects_garbage ]
       @ qc [ prop_adversity_roundtrip; prop_weaken_never_extends_settle ]);
      ("faults",
       [ Alcotest.test_case "no_faults is free" `Quick
           test_no_faults_instantiates_to_none;
         Alcotest.test_case "drop window" `Quick test_drop_window_drops;
         Alcotest.test_case "duplicate window" `Quick
           test_duplicate_window_duplicates;
         Alcotest.test_case "deterministic" `Quick test_fault_runs_deterministic;
         Alcotest.test_case "compose: drop wins" `Quick
           test_compose_faults_drop_wins ]);
      ("explorer",
       [ Alcotest.test_case "faithful clean" `Quick test_explore_faithful_clean;
         Alcotest.test_case "parallel matches sequential" `Quick
           test_explore_parallel_matches_sequential;
         Alcotest.test_case "finds all mutants" `Quick
           test_explore_finds_all_mutants;
         Alcotest.test_case "replay rejects wrong digest" `Quick
           test_repro_replay_rejects_wrong_digest;
         Alcotest.test_case "finds the anti-entropy mutant" `Quick
           test_explore_finds_ae_mutant;
         Alcotest.test_case "target_of names the clause" `Quick
           test_target_of_names_the_clause ]
       @ qc
           [ prop_target_of_inverts_builder_of;
             prop_legacy_reads_as_builder_of ]);
      ("recovery",
       [ Alcotest.test_case "finds recovery mutants" `Quick
           test_explore_finds_recovery_mutants;
         Alcotest.test_case "faithful recovery clean" `Quick
           test_explore_faithful_recovery_clean;
         Alcotest.test_case "repro parse errors name the line" `Quick
           test_repro_parse_errors_name_the_line ]
       @ qc [ prop_recovery_safety_under_any_plan ]);
      ("properties",
       qc
         [ prop_causal_order_under_any_plan;
           prop_random_pattern_within_contract ]);
      ("differential",
       [ Alcotest.test_case "clean on empty plan" `Quick
           test_impls_clean_on_empty_plan ]
       @ qc [ prop_impls_agree_differentially ]);
    ]
