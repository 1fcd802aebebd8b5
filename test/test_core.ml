(* Tests for the core library: Algorithms 1, 2, 4, 5, 6, 7, the causal
   graph, values, and the property checkers themselves. *)

open Simulator
open Ec_core

let msg ?(tag = "") ?(deps = []) origin sn = App_msg.make ~origin ~sn ~tag ~deps ()

(* ------------------------------------------------------------------ *)
(* Harness: run Algorithm 5 under a configurable scenario.             *)
(* ------------------------------------------------------------------ *)

let run_etob_omega ?(n = 3) ?(seed = 1) ?(deadline = 200) ?(timer_period = 2)
    ?(delay = Net.constant 1) ?pattern ?(omega_stabilize = 0)
    ?(omega_pre = Detectors.Omega.Self_trust) ~broadcasts () =
  let pattern = match pattern with Some p -> p | None -> Failures.none ~n in
  let omega = Detectors.Omega.make ~pre:omega_pre pattern ~stabilize_at:omega_stabilize in
  let config = { (Engine.default_config ~n ~deadline) with
                 pattern; seed; timer_period; delay } in
  let make_node ctx =
    let t, node = Etob_omega.create ctx ~omega:(Detectors.Omega.module_of omega ctx) in
    (node, Etob_omega.service t)
  in
  let inputs =
    List.map (fun (t, p, m) -> (t, p, Etob_intf.Broadcast_etob m)) broadcasts
  in
  let trace, _services = Engine.run_with config ~make_node ~inputs in
  (pattern, trace)

let check_verdict name (v : Properties.verdict) =
  Alcotest.(check bool) (name ^ ": " ^ String.concat "; " v.Properties.violations)
    true v.Properties.ok

(* ------------------------------------------------------------------ *)
(* App_msg                                                             *)
(* ------------------------------------------------------------------ *)

let test_app_msg_identity () =
  let a = msg 0 1 and b = msg 0 1 ~tag:"different-content" in
  Alcotest.(check bool) "same id => equal" true (App_msg.equal a b);
  Alcotest.(check bool) "different sn" false (App_msg.equal a (msg 0 2))

let test_app_msg_prefix () =
  let a = msg 0 0 and b = msg 1 0 and c = msg 2 0 in
  Alcotest.(check bool) "empty prefix" true (App_msg.is_prefix [] [ a; b ]);
  Alcotest.(check bool) "proper prefix" true (App_msg.is_prefix [ a ] [ a; b; c ]);
  Alcotest.(check bool) "equal" true (App_msg.is_prefix [ a; b ] [ a; b ]);
  Alcotest.(check bool) "not prefix" false (App_msg.is_prefix [ b ] [ a; b ]);
  Alcotest.(check bool) "longer" false (App_msg.is_prefix [ a; b ] [ a ])

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_tag_roundtrip () =
  List.iter
    (fun v ->
       match Value.of_tag (Value.to_tag v) with
       | Some v' -> Alcotest.(check bool) "roundtrip" true (Value.equal v v')
       | None -> Alcotest.fail "roundtrip failed")
    [ Value.Flag true; Value.Flag false; Value.Num 0; Value.Num (-42); Value.Num 17 ]

let test_value_tag_rejects_seq () =
  Alcotest.check_raises "Seq rejected"
    (Invalid_argument "Value.to_tag: only scalar values embed in tags")
    (fun () -> ignore (Value.to_tag (Value.Seq [])))

let test_value_compare_total () =
  let vs = [ Value.Flag false; Value.Flag true; Value.Num 3; Value.Seq [ msg 0 0 ];
             Value.Vec [ Value.Num 1 ] ] in
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            let ab = Value.compare a b and ba = Value.compare b a in
            Alcotest.(check int) "antisymmetric" ab (-ba);
            Alcotest.(check bool) "consistent with equal" (ab = 0) (Value.equal a b))
         vs)
    vs

(* ------------------------------------------------------------------ *)
(* Causal graph                                                        *)
(* ------------------------------------------------------------------ *)

let test_cg_linearize_respects_deps () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let m3 = msg 2 0 ~deps:[ App_msg.id m2 ] in
  let g = List.fold_left Causal_graph.add Causal_graph.empty [ m3; m1; m2 ] in
  let seq = Causal_graph.linearize g ~prefix:[] in
  Alcotest.(check bool) "valid" true (Causal_graph.is_valid_linearization g ~prefix:[] seq);
  Alcotest.(check (list string)) "causal order"
    [ "p0#0"; "p1#0"; "p2#0" ]
    (List.map (fun m -> Format.asprintf "%a" App_msg.pp_id (App_msg.id m)) seq)

let test_cg_prefix_kept () =
  let m1 = msg 0 0 and m2 = msg 1 0 in
  let m3 = msg 2 0 in
  let g = List.fold_left Causal_graph.add Causal_graph.empty [ m1; m2; m3 ] in
  (* A prefix that is NOT in tie-break order must be preserved verbatim. *)
  let prefix = [ m2; m1 ] in
  let seq = Causal_graph.linearize g ~prefix in
  Alcotest.(check bool) "prefix kept" true (App_msg.is_prefix prefix seq);
  Alcotest.(check int) "all messages" 3 (List.length seq)

let test_cg_union_commutative_content () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let g1 = Causal_graph.add Causal_graph.empty m1 in
  let g2 = Causal_graph.add Causal_graph.empty m2 in
  let u1 = Causal_graph.union g1 g2 and u2 = Causal_graph.union g2 g1 in
  Alcotest.(check int) "same size" (Causal_graph.size u1) (Causal_graph.size u2);
  Alcotest.(check bool) "same linearization" true
    (List.for_all2 App_msg.equal
       (Causal_graph.linearize u1 ~prefix:[])
       (Causal_graph.linearize u2 ~prefix:[]))

let test_cg_idempotent_add () =
  let m = msg 0 0 in
  let g = Causal_graph.add (Causal_graph.add Causal_graph.empty m) m in
  Alcotest.(check int) "one node" 1 (Causal_graph.size g)

(* qcheck: any random DAG linearizes validly, with any tie-break. *)
let arbitrary_graph =
  QCheck.make
    ~print:(fun msgs -> Format.asprintf "%a" App_msg.pp_seq msgs)
    QCheck.Gen.(
      let* count = int_range 1 12 in
      let rec build acc i =
        if i >= count then return (List.rev acc)
        else
          let* origin = int_range 0 2 in
          let* dep_mask = int_range 0 (max 1 (List.length acc)) in
          let deps =
            List.filteri (fun j _ -> j < dep_mask) acc |> List.map App_msg.id
          in
          build (App_msg.make ~origin ~sn:i ~deps () :: acc) (i + 1)
      in
      build [] 0)

let prop_linearize_valid =
  QCheck.Test.make ~name:"causal_graph: linearize is a valid topological extension"
    ~count:200 arbitrary_graph (fun msgs ->
        let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
        let seq = Causal_graph.linearize g ~prefix:[] in
        Causal_graph.is_valid_linearization g ~prefix:[] seq)

let prop_linearize_tie_break_independent =
  QCheck.Test.make
    ~name:"causal_graph: any tie-break yields a valid linearization"
    ~count:200 arbitrary_graph (fun msgs ->
        let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
        let reversed a b = App_msg.compare b a in
        let seq = Causal_graph.linearize ~tie_break:reversed g ~prefix:[] in
        Causal_graph.is_valid_linearization g ~prefix:[] seq)

let prop_linearize_monotone =
  QCheck.Test.make
    ~name:"causal_graph: relinearizing with a prior result as prefix extends it"
    ~count:200 arbitrary_graph (fun msgs ->
        match msgs with
        | [] -> true
        | _ ->
          let half = List.filteri (fun i _ -> i < List.length msgs / 2) msgs in
          let g_half = List.fold_left Causal_graph.add Causal_graph.empty half in
          let prefix = Causal_graph.linearize g_half ~prefix:[] in
          let g = List.fold_left Causal_graph.add Causal_graph.empty msgs in
          let seq = Causal_graph.linearize g ~prefix in
          App_msg.is_prefix prefix seq
          && Causal_graph.is_valid_linearization g ~prefix seq)

(* ------------------------------------------------------------------ *)
(* Algorithm 5 end-to-end                                              *)
(* ------------------------------------------------------------------ *)

let test_etob_omega_failure_free () =
  let broadcasts =
    [ (5, 0, msg 0 0 ~tag:"a"); (7, 1, msg 1 0 ~tag:"b"); (9, 2, msg 2 0 ~tag:"c") ]
  in
  let pattern, trace = run_etob_omega ~n:3 ~broadcasts () in
  let run = Properties.etob_run_of_trace pattern trace in
  let report = Properties.etob_report run in
  check_verdict "validity" report.Properties.validity;
  check_verdict "no-creation" report.Properties.no_creation;
  check_verdict "no-duplication" report.Properties.no_duplication;
  check_verdict "agreement" report.Properties.agreement;
  check_verdict "causal-order" report.Properties.causal_order;
  Alcotest.(check int) "final length" 3 (List.length (Properties.final_d run 0))

(* ------------------------------------------------------------------ *)
(* Algorithm 2's wire encoding                                         *)
(* ------------------------------------------------------------------ *)

let test_etob_to_ec_tag_roundtrip () =
  List.iter
    (fun (instance, v) ->
       let tag = Etob_to_ec.tag_of ~instance v in
       match Etob_to_ec.parse_tag tag with
       | Some (l, v') ->
         Alcotest.(check int) "instance" instance l;
         Alcotest.(check bool) "value" true (Value.equal v v')
       | None -> Alcotest.failf "failed to parse %s" tag)
    [ (1, Value.Flag true); (7, Value.Flag false); (42, Value.Num (-3));
      (1000, Value.Num 0) ]

let test_etob_to_ec_tag_rejects_garbage () =
  List.iter
    (fun tag ->
       Alcotest.(check bool) tag true (Etob_to_ec.parse_tag tag = None))
    [ ""; "ec2"; "ec2:x:f:true"; "other:1:n:3"; "ec2:1:bogus" ]

(* ------------------------------------------------------------------ *)
(* Scenario-based suites (through the shared harness)                  *)
(* ------------------------------------------------------------------ *)

let oracle ?(pre = Detectors.Omega.Self_trust) stabilize_at =
  Harness.Stacks.Oracle { stabilize_at; pre }

let num_values self ~instance = Value.Num ((self * 100) + instance)
let flag_values self ~instance = Value.Flag ((self + instance) mod 2 = 0)

(* --- Algorithm 4 (EC from Omega) ---------------------------------- *)

let test_ec_omega_stable_leader () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:150) with
                omega = oracle 0 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  check_verdict "integrity" report.Properties.integrity;
  check_verdict "validity" report.Properties.ec_validity;
  check_verdict "termination" report.Properties.termination;
  Alcotest.(check int) "agreement from the first instance" 1
    report.Properties.agreement_index

let test_ec_omega_late_stabilization () =
  (* The drivers run through roughly one instance per tick, so the instance
     count must comfortably outlast tau_Omega for post-stabilization
     instances to exist. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec ~propose_value:num_values
      ~max_instance:60 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:60 in
  Alcotest.(check bool) "all clauses with eventual agreement" true
    (Properties.ec_ok ~agreement_by:60 report);
  (* Self-trust really disagreed before stabilization. *)
  Alcotest.(check bool) "disagreement before tau_Omega" true
    (report.Properties.agreement_index > 1)

let test_ec_omega_no_majority () =
  (* The paper's headline: Algorithm 4 needs NO correct majority. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 40); (3, 40); (4, 40) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:400) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec ~propose_value:num_values
      ~max_instance:10 in
  let run = Properties.ec_run_of_trace pattern trace in
  let report = Properties.ec_report run ~instances:10 in
  Alcotest.(check bool)
    "EC holds with a minority of correct processes" true
    (Properties.ec_ok ~agreement_by:10 report)

let test_ec_omega_rotating_prefix () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                omega = oracle ~pre:(Detectors.Omega.Rotating 6) 50 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec ~propose_value:flag_values
      ~max_instance:10 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:10 in
  Alcotest.(check bool) "EC under rotating prefix" true
    (Properties.ec_ok ~agreement_by:10 report)

let test_minimum_system_size () =
  (* The paper's model starts at n = 2: both algorithms must work there,
     including with one of the two processes crashing (no majority left). *)
  let pattern = Failures.of_crashes ~n:2 [ (1, 40) ] in
  let setup = { (Harness.Stacks.default ~n:2 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace pattern trace in
  Alcotest.(check bool) "EC at n=2 with a crash" true
    (Properties.ec_ok ~agreement_by:8 (Properties.ec_report run ~instances:8));
  let setup = { (Harness.Stacks.default ~n:2 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "both-alive");
      (100, 0, Harness.Stacks.Post "solo") ]
  in
  let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace pattern trace in
  Alcotest.(check bool) "ETOB at n=2 with a crash" true
    (Properties.etob_base_ok (Properties.etob_report run));
  Alcotest.(check int) "survivor delivered both" 2
    (List.length (Properties.final_d run 0))

let prop_ec_omega_any_environment =
  QCheck.Test.make ~name:"algorithm 4: EC in any environment (random runs)"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 2 + Rng.int rng 4 in
       (* ANY environment: up to n-1 crashes, all before time 50. *)
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:50 in
       let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:3;
                     omega = oracle ~pre:(Detectors.Omega.Seeded seed) 60 } in
       let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec ~propose_value:num_values
           ~max_instance:50 in
       let run = Properties.ec_run_of_trace pattern trace in
       Properties.ec_ok ~agreement_by:50 (Properties.ec_report run ~instances:50))

(* --- Algorithm 5 (ETOB from Omega) --------------------------------- *)

let test_etob_omega_strong_tob_with_stable_omega () =
  (* Claim (P2) of Section 5: with Omega stable from the start, Algorithm 5
     implements full (strong) total order broadcast. *)
  let setup = { (Harness.Stacks.default ~n:4 ~deadline:200) with
                omega = oracle 0; delay = Net.uniform ~min:1 ~max:4 } in
  let inputs = Harness.Stacks.spread_posts ~n:4 ~count:10 ~from_time:5 ~every:3 in
  let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let report = Harness.Stacks.etob_report setup trace in
  Alcotest.(check bool)
    (Format.asprintf "strong TOB: %a" Properties.pp_etob_report report)
    true (Properties.is_strong_tob report);
  check_verdict "causal order" report.Properties.causal_order

let partition_setup ~n ~heal =
  let blocks = [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let spec = { Net.blocks; from_time = 5; until_time = heal } in
  { (Harness.Stacks.default ~n ~deadline:(heal * 3)) with
    delay = Net.partitioned spec ~base:(Net.constant 1);
    omega = oracle ~pre:(Detectors.Omega.Blockwise blocks) heal }

let test_etob_omega_partition_convergence () =
  (* Both sides of a partition keep making progress under their own leader;
     after healing (tau_Omega = heal) everything converges.  Causal order
     must hold throughout, including DURING the partition (claim P3). *)
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs = Harness.Stacks.spread_posts ~n:5 ~count:15 ~from_time:8 ~every:3 in
  let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "base properties" true (Properties.etob_base_ok report);
  check_verdict "causal order during partition" report.Properties.causal_order;
  check_verdict "dependencies present" (Properties.check_deps_present run);
  (* Lemma 3's bound: convergence by tau_Omega + Delta_t + Delta_c. *)
  let bound = heal + setup.Harness.Stacks.timer_period + 1 + 2 in
  let tau = Properties.etob_convergence_time report in
  Alcotest.(check bool)
    (Printf.sprintf "tau=%d <= bound=%d" tau bound) true (tau <= bound);
  (* The scenario must genuinely diverge during the partition, otherwise it
     shows nothing. *)
  Alcotest.(check bool) "divergence happened" true (tau > 0)

let test_etob_omega_no_majority () =
  (* Availability without a correct majority: 3 of 5 processes crash, and
     the survivors keep broadcasting and stably delivering. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 20); (3, 20); (4, 20) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "before");
      (40, 1, Harness.Stacks.Post "after-crashes");
      (60, 0, Harness.Stacks.Post "late") ]
  in
  let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool) "base properties" true (Properties.etob_base_ok report);
  Alcotest.(check int) "all three messages stably delivered" 3
    (List.length (Properties.final_d run 0))

let test_etob_omega_two_step_latency () =
  (* Claim (P1): two communication steps per delivery under a stable
     leader.  Delta = 3 ticks; from the broadcast, the update reaches the
     leader in Delta and the promote reaches everyone in another Delta (plus
     at most one timer period of batching at the leader). *)
  let delta = 3 in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with
                delay = Net.constant delta; omega = oracle 0; timer_period = 1 } in
  let post_at = 50 in
  let inputs = [ (post_at, 1, Harness.Stacks.Post "probe") ] in
  let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let probe =
    List.find_map
      (fun (_, _, o) ->
         match o with
         | Etob_intf.Etob_broadcast m when m.App_msg.tag = "probe" -> Some m
         | _ -> None)
      (Trace.outputs trace)
  in
  match probe with
  | None -> Alcotest.fail "probe not broadcast"
  | Some m ->
    (match Properties.stable_delivery_time run m with
     | None -> Alcotest.fail "probe not stably delivered"
     | Some t ->
       let latency = t - post_at in
       (* Two communication steps, plus at most one timer period of
          batching at the leader. *)
       Alcotest.(check bool)
         (Printf.sprintf "latency %d within [2D, 2D + timer]" latency)
         true
         (latency >= 2 * delta
          && latency <= (2 * delta) + setup.Harness.Stacks.timer_period + 1))

let test_etob_omega_with_elected_omega () =
  (* The full system: Algorithm 5 over the heartbeat-based Omega emulation
     rather than the oracle. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:250) with
                omega = Harness.Stacks.Elected { initial_timeout = 6 } } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:6 ~from_time:30 ~every:5 in
  let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let report = Harness.Stacks.etob_report setup trace in
  Alcotest.(check bool) "base properties over elected omega" true
    (Properties.etob_base_ok report);
  check_verdict "causal order" report.Properties.causal_order

let prop_etob_omega_random_runs =
  QCheck.Test.make ~name:"algorithm 5: ETOB in any environment (random runs)"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:40 in
       let stabilize = 50 + Rng.int rng 30 in
       let setup = { (Harness.Stacks.default ~n ~deadline:400) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:4;
                     omega = oracle ~pre:(Detectors.Omega.Seeded seed) stabilize } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:4 in
       let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace pattern trace in
       let report = Properties.etob_report run in
       Properties.etob_base_ok report
       && report.Properties.causal_order.Properties.ok
       && Properties.etob_convergence_time report <= stabilize + 2 + 4 + 2)

(* --- Service-level details ------------------------------------------ *)

let test_fresh_msg_causal_deps () =
  (* fresh_msg must declare genuine happens-before predecessors: the last
     own broadcast and the last delivered message. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:120) with
                omega = oracle 0 } in
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let t, node = Etob_omega.create ctx ~omega in
    let service = Etob_omega.service t in
    (Engine.stack [ omega_node; node; Harness.Stacks.post_driver service ],
     service)
  in
  let inputs =
    [ (5, 0, Harness.Stacks.Post "first");
      (40, 0, Harness.Stacks.Post "second");
      (60, 1, Harness.Stacks.Post "reply") ]
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup)
      ~make_node ~inputs in
  let broadcasts =
    List.filter_map
      (fun (_, _, o) ->
         match o with Etob_intf.Etob_broadcast m -> Some m | _ -> None)
      (Trace.outputs trace)
  in
  match List.sort App_msg.compare broadcasts with
  | [ first; second; reply ] ->
    Alcotest.(check (list (pair int int))) "first has no deps" [] first.App_msg.deps;
    (* p0's second message depends on its first (same-sender order) and on
       the last message it had delivered (its own first, here). *)
    Alcotest.(check bool) "second depends on first" true
      (List.mem (App_msg.id first) second.App_msg.deps);
    (* p1's reply depends on what it last delivered: p0's second. *)
    Alcotest.(check bool) "reply depends on second" true
      (List.mem (App_msg.id second) reply.App_msg.deps)
  | _ -> Alcotest.fail "expected three broadcasts"

let test_eic_input_driven () =
  (* The EIC abstraction driven through engine inputs rather than the
     harness driver: one instance proposed externally at each process. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                omega = oracle 0 } in
  let omega_of = Harness.Stacks.omega_module setup in
  let make_node ctx =
    let omega, omega_node = omega_of ctx in
    let ec, ec_node = Ec_omega.create ~layer:"ec-inner" ctx ~omega in
    let eic, eic_node = Ec_to_eic.create ctx ~ec:(Ec_omega.service ec) in
    ignore (Ec_to_eic.service eic);
    (Engine.stack [ omega_node; ec_node; eic_node ], ())
  in
  let inputs =
    List.map
      (fun p -> (5 + p, p, Eic_intf.Propose_eic { instance = 1;
                                                  value = Value.Num (p * 7) }))
      [ 0; 1; 2 ]
  in
  let trace, _ = Engine.run_with (Harness.Stacks.engine_config setup)
      ~make_node ~inputs in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  check_verdict "termination" (Properties.check_eic_termination run ~instances:1);
  check_verdict "validity" (Properties.check_eic_validity run);
  check_verdict "agreement" (Properties.check_eic_agreement run)

(* --- The binary-to-multivalued lift ([23] in the paper) ------------- *)

let test_binary_lift_stable_leader () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle 0 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec_lifted ~propose_value:num_values
      ~max_instance:6 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:6 in
  check_verdict "integrity" report.Properties.integrity;
  check_verdict "validity" report.Properties.ec_validity;
  check_verdict "termination" report.Properties.termination;
  Alcotest.(check int) "agreement from instance 1" 1 report.Properties.agreement_index;
  (* The decided values are genuinely multivalued (Num, not Flag). *)
  let distinct =
    List.sort_uniq compare (Properties.decided_instances run)
  in
  Alcotest.(check int) "six instances decided" 6 (List.length distinct)

let test_binary_lift_late_stabilization () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:800) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec_lifted ~propose_value:num_values
      ~max_instance:20 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:20 in
  Alcotest.(check bool)
    (Format.asprintf "lift with eventual agreement: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:20 report)

let test_binary_lift_with_crash () =
  let pattern = Failures.of_crashes ~n:3 [ (2, 30) ] in
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:800) with
                pattern; omega = oracle 0 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec_lifted ~propose_value:num_values
      ~max_instance:8 in
  let run = Properties.ec_run_of_trace pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  Alcotest.(check bool)
    (Format.asprintf "lift under crash: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:8 report)

(* --- Theorem 1: the transformations ------------------------------- *)

let test_alg1_over_alg4_is_etob () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle 30 } in
  let inputs = Harness.Stacks.spread_posts ~n:3 ~count:9 ~from_time:5 ~every:4 in
  let trace =
    Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_1_over_4
  in
  let run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool)
    (Format.asprintf "T_EC->ETOB: %a" Properties.pp_etob_report report)
    true (Properties.etob_base_ok report);
  Alcotest.(check bool) "eventual stability" true
    (Properties.etob_convergence_time report <= 60)

let test_alg2_over_alg5_is_ec () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle 30 } in
  let trace =
    Harness.Scenario.run_ec setup (Harness.Builder.Ec_via_etob Harness.Stacks.Algorithm_5)
      ~propose_value:flag_values ~max_instance:8
  in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:8 in
  Alcotest.(check bool)
    (Format.asprintf "T_ETOB->EC: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:8 report)

let test_alg2_over_paxos_is_consensus () =
  (* Over the strong baseline, the transformation yields agreement from the
     very first instance: it is (non-eventual) repeated consensus. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:600) with
                omega = oracle 0; timer_period = 3 } in
  let trace =
    Harness.Scenario.run_ec setup (Harness.Builder.Ec_via_etob Harness.Stacks.Paxos_baseline)
      ~propose_value:flag_values ~max_instance:5
  in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:5 in
  Alcotest.(check bool) "all clauses" true (Properties.ec_ok report);
  Alcotest.(check int) "agreement from instance 1" 1 report.Properties.agreement_index

(* --- Appendix A: EIC ----------------------------------------------- *)

let test_alg6_gives_eic () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:400) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 40 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Eic ~propose_value:flag_values
      ~max_instance:50 in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  check_verdict "eic termination" (Properties.check_eic_termination run ~instances:50);
  check_verdict "eic validity" (Properties.check_eic_validity run);
  check_verdict "eic agreement" (Properties.check_eic_agreement run);
  Alcotest.(check bool) "finitely many revocations" true
    (Properties.eic_revocation_count run < 1000);
  Alcotest.(check bool) "integrity index finite" true
    (Properties.eic_integrity_index run <= 51)

let test_alg6_revokes_under_disagreement () =
  (* With a long self-trust prefix, early EIC instances genuinely get
     revoked; the point of Appendix A is that this is allowed. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle ~pre:Detectors.Omega.Self_trust 30 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Eic ~propose_value:num_values
      ~max_instance:60 in
  let run = Properties.eic_run_of_trace setup.Harness.Stacks.pattern trace in
  Alcotest.(check bool) "revocations occurred" true
    (Properties.eic_revocation_count run > 0);
  check_verdict "eic agreement still holds" (Properties.check_eic_agreement run)

let test_alg7_over_alg6_is_ec () =
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:500) with
                omega = oracle 40 } in
  let trace = Harness.Scenario.run_ec setup Harness.Builder.Ec_via_eic ~propose_value:flag_values
      ~max_instance:60 in
  let run = Properties.ec_run_of_trace setup.Harness.Stacks.pattern trace in
  let report = Properties.ec_report run ~instances:60 in
  Alcotest.(check bool)
    (Format.asprintf "T_EIC->EC: %a" Properties.pp_ec_report report)
    true (Properties.ec_ok ~agreement_by:60 report)

(* --- The leaderless negative baseline ------------------------------ *)

(* Pairs of concurrent posts from different senders, racing the tie-break
   against arrival order: insertions keep happening for as long as the
   workload runs. *)
let concurrent_pairs ~until ~every =
  List.concat
    (List.init (until / every) (fun i ->
         let t = 10 + (i * every) in
         [ (t, 0, Harness.Stacks.Post (Printf.sprintf "a%d" i));
           (t, 2, Harness.Stacks.Post (Printf.sprintf "b%d" i)) ]))

let test_gossip_baseline_converges_but_never_stabilizes () =
  let workload_end = 200 in
  let inputs = concurrent_pairs ~until:workload_end ~every:10 in
  let delay = Net.uniform ~min:1 ~max:4 in
  (* The gossip baseline: correct base properties, convergence after
     quiescence, but stability violations track the workload, not any
     environment constant. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                delay; omega = oracle 0 } in
  let gossip_trace = Harness.Scenario.run_gossip_order ~inputs setup in
  let gossip_run = Properties.etob_run_of_trace setup.Harness.Stacks.pattern gossip_trace in
  let gossip_report = Properties.etob_report gossip_run in
  Alcotest.(check bool) "gossip base properties" true
    (Properties.etob_base_ok gossip_report);
  check_verdict "gossip causal order" gossip_report.Properties.causal_order;
  Alcotest.(check bool)
    (Printf.sprintf "gossip stability tracks the workload (tau=%d)"
       gossip_report.Properties.tau_stability)
    true
    (gossip_report.Properties.tau_stability > workload_end / 2);
  (* Algorithm 5 on the same workload: tau bounded by the environment. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:300) with
                delay; omega = oracle 0 } in
  let etob_trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
  let etob_report = Harness.Stacks.etob_report setup etob_trace in
  Alcotest.(check bool) "algorithm 5 is strong TOB on the same workload" true
    (Properties.is_strong_tob etob_report)

(* --- Committed-prefix indications (Section 7 extension) ------------ *)

let test_commit_prefix_stable_period () =
  (* Under a stable leader with a correct majority, every broadcast is
     eventually committed, and commitments are never rolled back. *)
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:200) with
                omega = oracle 0 } in
  let inputs = Harness.Stacks.spread_posts ~n:5 ~count:10 ~from_time:8 ~every:4 in
  let trace = Harness.Scenario.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  List.iter
    (fun p ->
       Alcotest.(check int) "everything committed" 10
         (Properties.committed_count commits p))
    (Failures.correct pattern)

let test_commit_prefix_latency_after_delivery () =
  (* A commitment needs one more round trip than stable delivery: the
     acknowledgments and the mark. *)
  let setup = { (Harness.Stacks.default ~n:3 ~deadline:200) with
                delay = Net.constant 2; omega = oracle 0; timer_period = 1 } in
  let inputs = [ (50, 1, Harness.Stacks.Post "probe") ] in
  let trace = Harness.Scenario.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  let m =
    List.find_map
      (fun (_, _, o) ->
         match o with
         | Etob_intf.Etob_broadcast m when m.App_msg.tag = "probe" -> Some m
         | _ -> None)
      (Trace.outputs trace)
    |> Option.get
  in
  match Properties.stable_delivery_time etob m, Properties.commit_time commits m with
  | Some deliver, Some commit ->
    Alcotest.(check bool)
      (Printf.sprintf "commit (%d) after delivery (%d)" commit deliver)
      true (commit >= deliver);
    Alcotest.(check bool) "within two extra round trips" true
      (commit - deliver <= 4 * 2 + 2 * setup.Harness.Stacks.timer_period)
  | None, _ -> Alcotest.fail "probe never stably delivered"
  | _, None -> Alcotest.fail "probe never committed"

let test_commit_prefix_abstains_without_majority () =
  (* With only a minority alive, deliveries continue (eventual consistency)
     but nothing new commits: exactly the paper's stable-period caveat. *)
  let pattern = Failures.of_crashes ~n:5 [ (2, 30); (3, 30); (4, 30) ] in
  let setup = { (Harness.Stacks.default ~n:5 ~deadline:300) with
                pattern; omega = oracle 0 } in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "early");
      (60, 0, Harness.Stacks.Post "uncommittable-1");
      (90, 1, Harness.Stacks.Post "uncommittable-2") ]
  in
  let trace = Harness.Scenario.run_etob_with_commits ~inputs setup in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  (* All three delivered... *)
  Alcotest.(check int) "delivered" 3 (List.length (Properties.final_d etob 0));
  (* ...but the post-crash broadcasts are not committed. *)
  let committed = Properties.final_committed commits 0 in
  Alcotest.(check bool) "post-crash messages uncommitted" true
    (not (List.exists (fun m -> m.App_msg.tag = "uncommittable-2") committed))

let test_commit_prefix_partition_commits_majority_side_only () =
  let heal = 60 in
  let setup = partition_setup ~n:5 ~heal in
  let inputs =
    [ (10, 0, Harness.Stacks.Post "maj");
      (12, 3, Harness.Stacks.Post "min") ]
  in
  let trace = Harness.Scenario.run_etob_with_commits ~inputs setup in
  let pattern = setup.Harness.Stacks.pattern in
  let commits = Properties.commit_run_of_trace pattern trace in
  let etob = Properties.etob_run_of_trace pattern trace in
  check_verdict "commit stability" (Properties.check_commit_stability commits);
  check_verdict "commit consistency" (Properties.check_commit_consistent commits etob);
  let maj_msg, min_msg =
    let find tag =
      List.find_map
        (fun (_, _, o) ->
           match o with
           | Etob_intf.Etob_broadcast m when m.App_msg.tag = tag -> Some m
           | _ -> None)
        (Trace.outputs trace)
      |> Option.get
    in
    (find "maj", find "min")
  in
  (* The majority side's message commits during the partition; the minority
     side's only after healing. *)
  (match Properties.commit_time commits maj_msg with
   | Some t -> Alcotest.(check bool) "maj commits after heal is also fine" true (t > 0)
   | None -> Alcotest.fail "majority message never committed");
  (match Properties.commit_time commits min_msg with
   | Some t ->
     Alcotest.(check bool)
       (Printf.sprintf "minority message commits only after heal (%d)" t) true
       (t >= heal)
   | None -> Alcotest.fail "minority message never committed")

(* With a stable-from-the-start leader (the oracle accounts for crashes:
   its constant output is the smallest process that never crashes), the
   commit indication must be safe under arbitrary crash patterns. *)
let prop_commit_safety_random_crashes =
  QCheck.Test.make ~name:"commit prefix: never rolled back under random crashes"
    ~count:25 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:80 in
       let setup = { (Harness.Stacks.default ~n ~deadline:300) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:3;
                     omega = oracle 0 } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:6 in
       let trace = Harness.Scenario.run_etob_with_commits ~inputs setup in
       let commits = Properties.commit_run_of_trace pattern trace in
       let etob = Properties.etob_run_of_trace pattern trace in
       (Properties.check_commit_stability commits).Properties.ok
       && (Properties.check_commit_consistent commits etob).Properties.ok)

(* The full realistic stack — elected omega, jittered delays, mid-run
   crashes — keeps every always-clause of ETOB and converges by the end. *)
let prop_full_stack_chaos =
  QCheck.Test.make ~name:"algorithm 5 + elected omega: chaos runs"
    ~count:15 QCheck.small_int
    (fun seed ->
       let rng = Rng.create seed in
       let n = 3 + Rng.int rng 3 in
       let pattern = Failures.random ~rng ~n ~max_faulty:(n - 1) ~horizon:100 in
       let setup = { (Harness.Stacks.default ~n ~deadline:600) with
                     pattern; seed;
                     delay = Net.uniform ~min:1 ~max:4;
                     omega = Harness.Stacks.Elected { initial_timeout = 8 } } in
       let inputs = Harness.Stacks.spread_posts ~n ~count:8 ~from_time:5 ~every:8 in
       let trace = Harness.Scenario.run_etob ~inputs setup Harness.Stacks.Algorithm_5 in
       let run = Properties.etob_run_of_trace pattern trace in
       let report = Properties.etob_report run in
       Properties.etob_base_ok report
       && report.Properties.causal_order.Properties.ok
       (* Converged well before the horizon: the election stabilizes after
          the last crash (by 100) plus its adaptive timeouts. *)
       && Properties.etob_convergence_time report <= 450)

(* --- Property-checker self-tests ----------------------------------- *)

(* Build a synthetic trace of ETOB outputs and check the checkers see what
   they should. *)
let synthetic_trace entries broadcasts ~n =
  let trace = Trace.create ~n in
  List.iter
    (fun (t, p, m) -> Trace.record_output trace ~time:t ~proc:p (Etob_intf.Etob_broadcast m))
    broadcasts;
  List.iter
    (fun (t, p, seq) -> Trace.record_output trace ~time:t ~proc:p (Etob_intf.Etob_deliver seq))
    entries;
  trace

let test_checker_flags_duplication () =
  let m = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ m; m ]) ] [ (1, 0, m) ] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_no_duplication run).Properties.ok

let test_checker_flags_creation () =
  let m = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ m ]) ] [] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_no_creation run).Properties.ok

let test_checker_flags_causal_violation () =
  let m1 = msg 0 0 in
  let m2 = msg 1 0 ~deps:[ App_msg.id m1 ] in
  let trace =
    synthetic_trace [ (5, 0, [ m2; m1 ]) ] [ (1, 0, m1); (2, 1, m2) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged" false (Properties.check_causal_order run).Properties.ok

let test_checker_measures_stability_tau () =
  let a = msg 0 0 and b = msg 1 0 in
  (* p0 delivers [a], revises to [b] at t=10 (breaking the prefix), then
     extends: tau must be 10. *)
  let trace =
    synthetic_trace
      [ (5, 0, [ a ]); (10, 0, [ b ]); (15, 0, [ b; a ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check int) "tau = 10" 10 (Properties.stability_time run)

let test_checker_measures_total_order_tau () =
  let a = msg 0 0 and b = msg 1 0 in
  (* At t=10 the two processes order {a,b} oppositely; at t=20 they agree. *)
  let trace =
    synthetic_trace
      [ (10, 0, [ a; b ]); (10, 1, [ b; a ]); (20, 1, [ a; b ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check int) "tau = 11" 11 (Properties.total_order_time run)

let test_checker_orders_agree () =
  let a = msg 0 0 and b = msg 1 0 and c = msg 2 0 in
  Alcotest.(check bool) "disjoint ok" true (Properties.orders_agree [ a ] [ b ]);
  Alcotest.(check bool) "consistent" true
    (Properties.orders_agree [ a; b; c ] [ a; c ]);
  Alcotest.(check bool) "inconsistent" false
    (Properties.orders_agree [ a; b ] [ b; a ])

let test_checker_agreement_flags_missing () =
  let a = msg 0 0 in
  let trace = synthetic_trace [ (5, 0, [ a ]) ] [ (1, 0, a) ] ~n:2 in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check bool) "flagged: p1 never delivers" false
    (Properties.check_agreement run).Properties.ok

let test_checker_orders_agree_asymmetric () =
  (* A duplicate id in the walked sequence revisits an earlier position. *)
  let x = msg 0 0 and y = msg 1 0 in
  Alcotest.(check bool) "[x;y] against [x;y;x]" true
    (Properties.orders_agree [ x; y ] [ x; y; x ]);
  Alcotest.(check bool) "[x;y;x] against [x;y]" false
    (Properties.orders_agree [ x; y; x ] [ x; y ])

let test_checker_same_tick_revisions () =
  let a = msg 0 0 and b = msg 1 0 in
  (* p1 is revised twice at t=10; the later revision [a;b] is d_1(10), so
     the pair agrees at every time and tau = 0. *)
  let trace =
    synthetic_trace
      [ (10, 0, [ a; b ]); (10, 1, [ b; a ]); (10, 1, [ a; b ]) ]
      [ (1, 0, a); (1, 1, b) ] ~n:2
  in
  let run = Properties.etob_run_of_trace (Failures.none ~n:2) trace in
  Alcotest.(check int) "last revision wins" 0 (Properties.total_order_time run);
  Alcotest.(check int) "reference agrees" 0
    (Properties_ref.total_order_time (Properties_ref.etob_run_of_trace
                                        (Failures.none ~n:2) trace))

let test_checker_tau_at_faulty_revision () =
  let a = msg 0 0 and b = msg 1 0 in
  (* Correct p0 and p1 disagree from t=10 until p1 fixes its order at
     t=40.  No correct process is revised between, but faulty p2's
     revision at t=25 is an evaluation time too, so the last inconsistent
     time is 25, not 10: tau = 26 (11 if faulty times were skipped). *)
  let pattern = Failures.of_crashes ~n:3 [ (2, 30) ] in
  let entries fix =
    [ (10, 0, [ a; b ]); (10, 1, [ b; a ]); (25, 2, [ a ]) ]
    @ if fix then [ (40, 1, [ a; b ]) ] else []
  in
  let tau fix =
    let trace = synthetic_trace (entries fix) [ (1, 0, a); (1, 1, b) ] ~n:3 in
    Properties.total_order_time (Properties.etob_run_of_trace pattern trace)
  in
  Alcotest.(check int) "tau = faulty revision + 1" 26 (tau false);
  Alcotest.(check int) "fixed at 40: tau = 26" 26 (tau true)

let test_checker_n30_clean () =
  (* Alg. 5 at n = 30 under a stable oracle: strong TOB, checked in well
     under a second by the position-table checkers. *)
  let n = 30 in
  let b =
    { (Harness.Builder.create ~n ~deadline:400
         ~delay:(Harness.Builder.Uniform { min_d = 1; max_d = 4 })
         (Harness.Builder.Etob Harness.Stacks.Algorithm_5))
      with
      Harness.Builder.workload =
        Harness.Builder.Posts { count = 40; from_time = 10; every = 5 } }
  in
  let trace = Option.get (Harness.Builder.run b).Harness.Builder.trace in
  let run = Properties.etob_run_of_trace (Failures.none ~n) trace in
  let report = Properties.etob_report run in
  Alcotest.(check bool)
    (Format.asprintf "strong TOB: %a" Properties.pp_etob_report report)
    true (Properties.is_strong_tob report);
  check_verdict "causal order" report.Properties.causal_order;
  Alcotest.(check int) "tau(total order)" 0 report.Properties.tau_total_order;
  Alcotest.(check int) "all 40 delivered" 40 (List.length (Properties.final_d run 0))

(* --- Fast checkers vs the list-based reference ----------------------- *)

(* The position-table and sweep checkers are trusted because they agree
   with [Properties_ref], the definition read literally: every verdict and
   violation string in order, both taus, plus the helpers they rest on. *)
let checkers_agree pattern trace =
  let fast = Properties.etob_run_of_trace pattern trace in
  let slow = Properties_ref.etob_run_of_trace pattern trace in
  let a = Properties.etob_report fast and b = Properties_ref.etob_report slow in
  let n = Failures.n pattern in
  let procs = List.init n Fun.id in
  let msgs =
    List.concat_map
      (fun p -> List.concat_map snd (Properties.revisions fast p))
      procs
  in
  let helpers_agree =
    List.for_all
      (fun p ->
         List.equal App_msg.equal (Properties.final_d fast p)
           (Properties_ref.final_d slow p)
         && List.for_all
           (fun q ->
              let dp = Properties.final_d fast p and dq = Properties.final_d fast q in
              Properties.orders_agree dp dq = Properties_ref.orders_agree dp dq)
           procs)
      procs
    && List.for_all
      (fun m -> Properties.broadcast_time fast m = Properties_ref.broadcast_time slow m)
      msgs
  in
  if a <> b then
    QCheck.Test.fail_reportf "fast:@.%a@.reference:@.%a"
      Properties.pp_etob_report a Properties.pp_etob_report b
  else if not helpers_agree then
    QCheck.Test.fail_report "final_d / orders_agree / broadcast_time differ"
  else true

(* Builder runs: every ETOB-output stack, unclamped plans, every
   Algorithm 5 mutant (the non-Alg. 5 stacks ignore the mutation). *)
let differential_stacks =
  Harness.Builder.
    [ Etob Harness.Stacks.Algorithm_5; Etob Harness.Stacks.Paxos_baseline;
      Etob Harness.Stacks.Algorithm_1_over_4; Etob_ae; Gossip;
      Recoverable { ae = true } ]

let differential_builder_gen =
  let open QCheck.Gen in
  let* stack = oneofl differential_stacks in
  let* mutation =
    oneofl (None :: List.map Option.some Etob_omega.all_mutations)
  in
  let* n = int_range 3 6 in
  let* seed = int_bound 9999 in
  let* count = int_range 4 10 in
  let deadline = 240 in
  let* plan = Qgen.plan_gen ~n ~deadline in
  return
    { (Harness.Builder.create ~seed ~n ~deadline
         ~delay:(Harness.Builder.Uniform { min_d = 1; max_d = 4 }) stack)
      with
      Harness.Builder.workload =
        Harness.Builder.Auto_posts { count; stretch = false };
      plan; mutation }

let prop_checkers_match_reference_on_runs =
  QCheck.Test.make ~name:"fast ETOB checkers = reference on builder runs"
    ~count:200
    (QCheck.make ~print:Harness.Builder.to_string differential_builder_gen)
    (fun b ->
       let o = Harness.Builder.run ~catch:true b in
       match o.Harness.Builder.trace with
       | None -> true
       | Some trace ->
         checkers_agree (Harness.Builder.setup_of b).Harness.Stacks.pattern trace)

(* Synthetic traces over a tiny message universe: sequences drawn from a
   shared order (mostly agreeing) or a fresh shuffle (disagreeing, so tau
   is usually > 0), same-tick and out-of-order revision times, duplicate
   ids, dependencies pointing anywhere, missing, late and repeated
   broadcasts, and faulty processes whose revisions only add evaluation
   times. *)
type synthetic = {
  s_n : int;
  s_crashes : (int * int) list;
  s_broadcasts : (int * int * App_msg.t) list;
  s_entries : (int * int * App_msg.t list) list;
}

let synthetic_gen =
  let open QCheck.Gen in
  let* n = int_range 2 5 in
  let* crashes = Qgen.crash_list_gen ~n ~max_faulty:(n - 1) ~horizon:60 in
  let ids = List.concat_map (fun o -> List.init 3 (fun sn -> (o, sn))) (List.init n Fun.id) in
  let* universe =
    flatten_l
      (List.map
         (fun (origin, sn) ->
            let* deps = list_size (int_bound 2) (oneofl ids) in
            return (msg origin sn ~deps))
         ids)
  in
  let* base = shuffle_l universe in
  (* Keep each message with probability 3/5; one time in ten, repeat the
     first kept one at the end (a duplicate id). *)
  let subseq order =
    let* kept =
      flatten_l
        (List.map (fun m -> map (fun r -> if r < 3 then [ m ] else []) (int_bound 4))
           order)
    in
    let kept = List.concat kept in
    let* dup = int_bound 9 in
    return (match kept with x :: _ when dup = 0 -> kept @ [ x ] | _ -> kept)
  in
  let seq_gen =
    frequency
      [ (3, subseq base); (2, shuffle_l universe >>= subseq) ]
  in
  (* Revision times climb by 0..6 from a start in 0..10 (0 = same tick);
     one trace in eight takes the raw steps instead, out of order. *)
  let* unsorted = int_bound 7 in
  let revisions p =
    let* count = int_bound 5 in
    let* steps = list_repeat count (int_bound 6) in
    let* start = int_bound 10 in
    let times =
      if unsorted = 0 then steps
      else
        List.rev
          (snd (List.fold_left (fun (t, acc) d -> (t + d, (t + d) :: acc))
                  (start, []) steps))
    in
    let* seqs = list_repeat count seq_gen in
    return (List.map2 (fun t seq -> (t, p, seq)) times seqs)
  in
  let* entries = flatten_l (List.init n revisions) in
  let* broadcasts =
    flatten_l
      (List.map
         (fun m ->
            let* t = int_bound 30 in
            let* copies = frequencyl [ (1, 0); (8, 1); (1, 2) ] in
            return (List.init copies (fun c -> (t + c, m.App_msg.origin, m))))
         universe)
  in
  return { s_n = n; s_crashes = crashes; s_broadcasts = List.concat broadcasts;
           s_entries = List.concat entries }

let print_synthetic s =
  Format.asprintf "n=%d crashes=[%s]@.broadcasts:%a@.revisions:%a" s.s_n
    (String.concat ";" (List.map (fun (p, t) -> Printf.sprintf "%d@%d" p t) s.s_crashes))
    (Fmt.list (fun ppf (t, p, m) -> Fmt.pf ppf " %d:p%d:%a" t p App_msg.pp m))
    s.s_broadcasts
    (Fmt.list (fun ppf (t, p, seq) -> Fmt.pf ppf "@. %d p%d %a" t p App_msg.pp_seq seq))
    s.s_entries

let prop_checkers_match_reference_on_synthetic =
  QCheck.Test.make ~name:"fast ETOB checkers = reference on synthetic traces"
    ~count:400
    (QCheck.make ~print:print_synthetic synthetic_gen)
    (fun s ->
       checkers_agree
         (Qgen.pattern_of_crashes ~n:s.s_n s.s_crashes)
         (synthetic_trace s.s_entries s.s_broadcasts ~n:s.s_n))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest
      [ prop_linearize_valid; prop_linearize_tie_break_independent;
        prop_linearize_monotone ]
  in
  (* Fixed seed: the differential replays the same cases on every run. *)
  let qc_differential =
    List.map
      (fun t ->
         QCheck_base_runner.set_seed 0x5eed;
         QCheck_alcotest.to_alcotest ~rand:(QCheck_base_runner.random_state ()) t)
      [ prop_checkers_match_reference_on_runs;
        prop_checkers_match_reference_on_synthetic ]
  in
  let qc_runs = List.map QCheck_alcotest.to_alcotest
      [ prop_ec_omega_any_environment; prop_etob_omega_random_runs;
        prop_commit_safety_random_crashes; prop_full_stack_chaos ]
  in
  Alcotest.run "ec_core"
    [ ("app_msg",
       [ Alcotest.test_case "identity" `Quick test_app_msg_identity;
         Alcotest.test_case "prefix" `Quick test_app_msg_prefix ]);
      ("value",
       [ Alcotest.test_case "tag roundtrip" `Quick test_value_tag_roundtrip;
         Alcotest.test_case "tag rejects seq" `Quick test_value_tag_rejects_seq;
         Alcotest.test_case "compare total" `Quick test_value_compare_total ]);
      ("causal_graph",
       [ Alcotest.test_case "respects deps" `Quick test_cg_linearize_respects_deps;
         Alcotest.test_case "prefix kept" `Quick test_cg_prefix_kept;
         Alcotest.test_case "union commutative" `Quick test_cg_union_commutative_content;
         Alcotest.test_case "idempotent add" `Quick test_cg_idempotent_add ]
       @ qc);
      ("ec_omega (algorithm 4)",
       [ Alcotest.test_case "stable leader" `Quick test_ec_omega_stable_leader;
         Alcotest.test_case "late stabilization" `Quick test_ec_omega_late_stabilization;
         Alcotest.test_case "no correct majority" `Quick test_ec_omega_no_majority;
         Alcotest.test_case "rotating prefix" `Quick test_ec_omega_rotating_prefix;
         Alcotest.test_case "minimum system size (n=2)" `Quick
           test_minimum_system_size ]);
      ("etob_omega (algorithm 5)",
       [ Alcotest.test_case "failure-free run" `Quick test_etob_omega_failure_free;
         Alcotest.test_case "strong TOB with stable omega (P2)" `Quick
           test_etob_omega_strong_tob_with_stable_omega;
         Alcotest.test_case "partition convergence + Lemma 3 bound" `Quick
           test_etob_omega_partition_convergence;
         Alcotest.test_case "no correct majority" `Quick test_etob_omega_no_majority;
         Alcotest.test_case "two-step latency (P1)" `Quick
           test_etob_omega_two_step_latency;
         Alcotest.test_case "over elected omega" `Quick
           test_etob_omega_with_elected_omega ]);
      ("service details",
       [ Alcotest.test_case "fresh_msg causal deps" `Quick test_fresh_msg_causal_deps;
         Alcotest.test_case "EIC driven by inputs" `Quick test_eic_input_driven ]);
      ("binary lift ([23])",
       [ Alcotest.test_case "stable leader" `Quick test_binary_lift_stable_leader;
         Alcotest.test_case "late stabilization" `Quick
           test_binary_lift_late_stabilization;
         Alcotest.test_case "with crash" `Quick test_binary_lift_with_crash ]);
      ("transformations (theorem 1)",
       [ Alcotest.test_case "algorithm 2 tag roundtrip" `Quick
           test_etob_to_ec_tag_roundtrip;
         Alcotest.test_case "algorithm 2 tag rejects garbage" `Quick
           test_etob_to_ec_tag_rejects_garbage;
         Alcotest.test_case "algorithm 1 over 4 is ETOB" `Quick
           test_alg1_over_alg4_is_etob;
         Alcotest.test_case "algorithm 2 over 5 is EC" `Quick test_alg2_over_alg5_is_ec;
         Alcotest.test_case "algorithm 2 over paxos is consensus" `Quick
           test_alg2_over_paxos_is_consensus ]);
      ("gossip baseline (no omega)",
       [ Alcotest.test_case "converges but never stabilizes" `Quick
           test_gossip_baseline_converges_but_never_stabilizes ]);
      ("commit_prefix (section 7)",
       [ Alcotest.test_case "stable period commits everything" `Quick
           test_commit_prefix_stable_period;
         Alcotest.test_case "commit follows delivery" `Quick
           test_commit_prefix_latency_after_delivery;
         Alcotest.test_case "abstains without majority" `Quick
           test_commit_prefix_abstains_without_majority;
         Alcotest.test_case "partition: majority side only" `Quick
           test_commit_prefix_partition_commits_majority_side_only ]);
      ("eic (appendix A)",
       [ Alcotest.test_case "algorithm 6 gives EIC" `Quick test_alg6_gives_eic;
         Alcotest.test_case "revocations happen and stop" `Quick
           test_alg6_revokes_under_disagreement;
         Alcotest.test_case "algorithm 7 over 6 is EC" `Quick test_alg7_over_alg6_is_ec ]);
      ("property checkers",
       [ Alcotest.test_case "flags duplication" `Quick test_checker_flags_duplication;
         Alcotest.test_case "flags creation" `Quick test_checker_flags_creation;
         Alcotest.test_case "flags causal violation" `Quick
           test_checker_flags_causal_violation;
         Alcotest.test_case "measures stability tau" `Quick
           test_checker_measures_stability_tau;
         Alcotest.test_case "measures total-order tau" `Quick
           test_checker_measures_total_order_tau;
         Alcotest.test_case "orders_agree" `Quick test_checker_orders_agree;
         Alcotest.test_case "agreement flags missing" `Quick
           test_checker_agreement_flags_missing;
         Alcotest.test_case "orders_agree is asymmetric" `Quick
           test_checker_orders_agree_asymmetric;
         Alcotest.test_case "same-tick revisions: last wins" `Quick
           test_checker_same_tick_revisions;
         Alcotest.test_case "tau at a faulty revision time" `Quick
           test_checker_tau_at_faulty_revision;
         Alcotest.test_case "alg5 n=30 checks clean" `Quick test_checker_n30_clean ]);
      ("checker differential", qc_differential);
      ("random runs", qc_runs);
    ]
