(* The loop check_dense and wide_run share: a pool of items cycled
   through a closed loop, each repeat of an item held to its first run's
   digest, then (traced runs only) a traced pass over the same items. *)

(* The layers an untraced item runs ([Builder.run] and friends), whose
   traced words must add up to the untraced item's. *)
let item_layers =
  Tracer.
    [ parse; materialise; engine; protocol; sink; extract; total_order;
      stability; causal; safety; watchdog; digest ]

let run ~name ~seed ~pool ~tail ~seconds ~trace ~prep ~probe_problems
    ?(check = fun _ _ -> None) ~item ~traced () =
  let ledger = Measure.ledger () in
  let refs = Array.make pool None in
  let slots = Measure.slots pool in
  (* Warm-up, untimed; its digest is a reference like any other. *)
  (match item 0 with
   | Ok (dg, []) -> refs.(0) <- Some dg
   | Ok (_, v :: _) -> Measure.fail ledger "warm-up item not clean: %s" v
   | Error e -> Measure.fail ledger "warm-up item raised: %s" e);
  let s = Measure.samples () in
  let budget_ms = float_of_int seconds *. if trace then 500. else 1000. in
  let attempted = ref 0 in
  Measure.closed_loop s ~budget_ms ~item ~check:(fun i r ->
      incr attempted;
      let k = i mod pool in
      Measure.record slots k s;
      (match r with
       | Error e -> Measure.fail ledger "item %d raised: %s" i e
       | Ok (_, v :: _) -> Measure.fail ledger "item %d not clean: %s" i v
       | Ok (dg, []) ->
         (match refs.(k) with
          | None -> refs.(k) <- Some dg
          | Some d when d <> dg ->
            Measure.fail ledger "item %d: digest %s, earlier run of it %s" i dg d
          | Some _ -> ());
         (match check i dg with
          | None -> ()
          | Some why -> Measure.fail ledger "item %d: %s" i why));
      prep.Measure.redo ());
  Measure.write_samples s
    (Filename.concat Measure.out_dir (Printf.sprintf "samples-%s-%d.tsv" name seed));
  let metrics, problems =
    if not trace then (Measure.end_to_end ~prep ~tail s, [])
    else
      Layers.traced_pass ~name ~seed ~budget_ms ~slots
        ~reference:(fun k -> refs.(k))
        ~ledger ~attempted
        ~untraced:(fun k () -> ignore (item k))
        traced
  in
  let digests = Array.to_list refs |> List.filter_map Fun.id in
  { Measure.attempted = !attempted;
    failed = ledger.Measure.fails;
    problems = ledger.Measure.why @ problems @ probe_problems;
    metrics;
    info =
      [ ("items_digest", Digest.to_hex (Digest.string (String.concat "," digests)));
        ("items", string_of_int s.Measure.lat_ms.Measure.len);
        ("item_words_drift", string_of_int slots.Measure.drift) ] }
