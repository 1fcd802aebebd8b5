(* check_dense: the [ecsim check --spec] path, where the ETOB property
   checkers cost far more than the run they check.  An item parses a spec
   (Algorithm 5, n = 5, 40 posts every 5 ticks from t = 10, uniform 1..4
   delays, horizon 400, plan-aware ETOB checker) and runs it with a
   digest; items differ only by the engine seed. *)

open Harness
module B = Builder

let pool = 32

let spec ?mutant ~seed () =
  String.concat "\n"
    ([ B.header; "stack alg5"; "n 5"; Printf.sprintf "seed %d" seed;
       "deadline 400"; "timer-period 2"; "delay uniform min=1 max=4";
       "workload posts count=40 from=10 every=5" ]
     @ (match mutant with
         | None -> []
         | Some m -> [ "mutant " ^ Ec_core.Etob_omega.mutation_name m ])
     @ [ "check etob tau=auto"; "plan 0"; "end"; "" ])

let parse text =
  match B.of_string text with Ok b -> b | Error e -> failwith ("spec: " ^ e)

(* Spec texts to parsed, materialised builders. *)
let setup ~seed () =
  let texts = Array.init pool (fun k -> spec ~seed:(Measure.derive ~seed k) ()) in
  let builders = Array.map parse texts in
  Array.iter
    (fun b -> ignore (Sys.opaque_identity (B.setup_of b, B.inputs b)))
    builders;
  texts

let item texts k =
  match B.run ~digest:true (parse texts.(k mod pool)) with
  | o -> Ok (o.B.digest, o.B.violations)
  | exception e -> Error (Printexc.to_string e)

(* Seeded bugs that this shape must expose, run untimed on pool seed 0. *)
let probes = Ec_core.Etob_omega.[ Forget_promote_prefix; Disable_stale_guard ]

let traced tr c texts k ~untraced_ms ~untraced_words =
  let it = Tracer.begin_item tr ~item:k in
  let b = Tracer.phase tr Tracer.parse (fun () -> parse texts.(k)) in
  let setup, inputs =
    Tracer.phase tr Tracer.materialise (fun () -> (B.setup_of b, B.inputs b))
  in
  let trace, _ =
    Layers.run_engine tr setup
      ~make_node:(Stacks.etob_node setup Stacks.Algorithm_5)
      ~inputs c
  in
  let violations = Layers.checks tr b setup trace c in
  let dg = Layers.digest tr trace c in
  Layers.end_item tr c it ~compared:Pool.item_layers ~untraced_ms
    ~untraced_words;
  (dg, violations)

let run ~seed ~seconds ~trace =
  let texts, prep = Measure.setup (setup ~seed) in
  let probe_problems =
    List.filter_map
      (fun m ->
         let text = spec ~mutant:m ~seed:(Measure.derive ~seed 0) () in
         match B.run ~catch:true (parse text) with
         | { B.violations = []; _ } ->
           Some
             ("probe not flagged: " ^ Ec_core.Etob_omega.mutation_name m)
         | _ -> None)
      probes
  in
  Pool.run ~name:"check_dense" ~seed ~pool ~tail:0.90 ~seconds ~trace ~prep
    ~probe_problems ~item:(item texts)
    ~traced:(fun tr c k -> traced tr c texts k)
    ()
