(* wide_run: the record path behind [ecsim run --trace-out X.trace.bin].
   An item runs a wide spec (Algorithm 5, n = 60, 4 posts, horizon 600,
   no checkers) with its events streamed through the framed binary sink,
   then appends the spec record that makes the artifact replayable.  No
   checker runs here: engine, protocol and sink/frame encoding share the
   item's time. *)

open Harness
module B = Builder

let pool = 32
let artifact () = Filename.concat Measure.out_dir "wide_run.trace.bin"

let spec ~seed =
  String.concat "\n"
    [ B.header; "stack alg5"; "n 60"; Printf.sprintf "seed %d" seed;
      "deadline 600"; "timer-period 2"; "delay uniform min=1 max=4";
      "workload posts count=4 from=10 every=5"; "plan 0"; "end"; "" ]

let parse text =
  match B.of_string text with Ok b -> b | Error e -> failwith ("spec: " ^ e)

let setup ~seed () =
  let builders =
    Array.init pool (fun k -> parse (spec ~seed:(Measure.derive ~seed k)))
  in
  Array.iter
    (fun b -> ignore (Sys.opaque_identity (B.setup_of b, B.inputs b)))
    builders;
  Measure.mkdirs Measure.out_dir;
  builders

let item builders k =
  let b = builders.(k mod pool) in
  let path = artifact () in
  match
    let o = B.run ~digest:true { b with B.trace_out = Some (path, B.Binary) } in
    B.append_binary_spec path ~digest:o.B.digest b;
    o
  with
  | o -> Ok (o.B.digest, o.B.violations)
  | exception e -> Error (Printexc.to_string e)

let read_artifact path = In_channel.with_open_bin path In_channel.input_all

(* The artifact decodes, and its embedded spec records the run's digest. *)
let decodes dg =
  match Persist.Frame.decode (read_artifact (artifact ())) with
  | Error e -> Some (Format.asprintf "artifact: %a" Persist.Frame.pp_error e)
  | Ok items ->
    (match Persist.Frame.spec items with
     | None -> Some "artifact carries no spec record"
     | Some text ->
       if B.recorded_digest text = Some dg then None
       else Some "artifact's recorded digest differs from the run's")

(* Every item's artifact is checked: decoded on an item's first run, and
   on each repeat required to be byte-identical to that first artifact
   (an MD5 of the file costs a tenth of a decode). *)
let check_artifact () =
  let first = Array.make pool None in
  fun i dg ->
    let k = i mod pool in
    let md5 = Digest.file (artifact ()) in
    match first.(k) with
    | Some d when d = md5 -> None
    | Some _ -> Some "artifact differs from the item's first artifact"
    | None ->
      let verdict = decodes dg in
      if verdict = None then first.(k) <- Some md5;
      verdict

let traced tr c builders k ~untraced_ms ~untraced_words =
  let it = Tracer.begin_item tr ~item:k in
  let b =
    Tracer.phase tr Tracer.parse (fun () ->
        parse (spec ~seed:(B.seed_of builders.(k))))
  in
  let setup, inputs =
    Tracer.phase tr Tracer.materialise (fun () -> (B.setup_of b, B.inputs b))
  in
  let path = artifact () in
  let trace =
    Tracer.phase tr Tracer.sink (fun () ->
        Simulator.Sink.with_binary path (fun file ->
            fst
              (Layers.run_engine tr ~extra:file setup
                 ~make_node:(Stacks.etob_node setup Stacks.Algorithm_5)
                 ~inputs c)))
  in
  let dg = Layers.digest tr trace c in
  Tracer.phase tr Tracer.sink (fun () -> B.append_binary_spec path ~digest:dg b);
  let records =
    Tracer.phase tr Tracer.decode (fun () ->
        let bytes = read_artifact path in
        c.Layers.frame_bytes <- c.Layers.frame_bytes + String.length bytes;
        match Persist.Frame.decode bytes with
        | Ok items -> List.length items
        | Error _ -> 0)
  in
  c.Layers.frame_records <- c.Layers.frame_records + records;
  (* Parsing is set-up here, and decoding is the check: neither is part
     of an untraced item. *)
  Layers.end_item tr c it
    ~compared:(List.filter (fun l -> l <> Tracer.parse) Pool.item_layers)
    ~untraced_ms ~untraced_words;
  (dg, if records = 0 then [ "artifact does not decode" ] else [])

let run ~seed ~seconds ~trace =
  let builders, prep = Measure.setup (setup ~seed) in
  Pool.run ~name:"wide_run" ~seed ~pool ~tail:0.75 ~seconds ~trace ~prep
    ~probe_problems:[]
    ~check:(check_artifact ())
    ~item:(item builders)
    ~traced:(fun tr c k -> traced tr c builders k)
    ()
