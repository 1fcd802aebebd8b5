(* alloclint report rendering, in detlint's format: stable field order,
   sorted findings, byte-identical across runs — goldenable. *)

let to_json (r : Alloc_driver.result_t) =
  let findings = List.map (Report.finding_json ~extra:"") r.findings in
  let allowed =
    List.map
      (fun (f, reason) ->
         Report.finding_json
           ~extra:
             (Printf.sprintf ", \"allowed\": \"%s\""
                (Persist.Frame.json_escape reason))
           f)
      r.allowed
  in
  let roots =
    List.map
      (fun k -> Printf.sprintf "    \"%s\"" (Persist.Frame.json_escape k))
      r.hot_roots
  in
  String.concat "\n"
    [ "{";
      "  \"alloclint\": 1,";
      Printf.sprintf "  \"cmts_scanned\": %d," r.cmts;
      Printf.sprintf "  \"functions_indexed\": %d," r.functions;
      Report.block "hot_roots" roots ^ ",";
      Report.block "findings" findings ^ ",";
      Report.block "allowed" allowed;
      "}"; "" ]

let pp_human ppf (r : Alloc_driver.result_t) =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp_human f) r.findings;
  Format.fprintf ppf
    "alloclint: %d finding%s, %d allowlisted, %d hot roots, %d functions \
     over %d cmts@."
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    (List.length r.allowed)
    (List.length r.hot_roots)
    r.functions r.cmts
