(* Report rendering: machine-readable JSON (stable field order, sorted
   findings — byte-identical across runs, so it can be goldened like any
   other artifact) and human file:line:col diagnostics. *)

let finding_json ~extra (f : Finding.t) =
  Printf.sprintf
    "    { \"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d, \
     \"message\": \"%s\"%s }"
    (Finding.rule_id f.rule) (Persist.Frame.json_escape f.file) f.line f.col
    (Persist.Frame.json_escape f.message) extra

let block name items =
  if items = [] then Printf.sprintf "  \"%s\": []" name
  else
    Printf.sprintf "  \"%s\": [\n%s\n  ]" name (String.concat ",\n" items)

let to_json (r : Driver.result_t) =
  let findings = List.map (finding_json ~extra:"") r.findings in
  let allowed =
    List.map
      (fun (f, reason) ->
         finding_json
           ~extra:
             (Printf.sprintf ", \"allowed\": \"%s\""
                (Persist.Frame.json_escape reason))
           f)
      r.allowed
  in
  String.concat "\n"
    [ "{";
      "  \"detlint\": 1,";
      Printf.sprintf "  \"files_scanned\": %d," r.files;
      block "findings" findings ^ ",";
      block "allowed" allowed;
      "}"; "" ]

let pp_human ppf (r : Driver.result_t) =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp_human f) r.findings;
  Format.fprintf ppf "detlint: %d finding%s, %d allowlisted, %d files scanned@."
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    (List.length r.allowed) r.files
