(* Shared --backend flag handling for the CLI executables: one table of
   simulator backend names, per-command restriction of which are legal,
   and a did-you-mean suggestion when the value is unknown.  Raises
   [Failure] with an actionable message, matching the CLI's [guard]
   convention (exit code 2). *)

open Tensorlib

let all : (string * Sim.backend) list =
  [ ("tape", `Tape); ("batch", `Batch) ]

let names = List.map fst all

let of_string ?(allowed = names) s =
  let valid () = String.concat ", " allowed in
  match List.assoc_opt s all with
  | Some b when List.mem s allowed -> b
  | Some _ ->
    failwith
      (Printf.sprintf
         "simulator backend %S is not supported by this command; valid: %s"
         s (valid ()))
  | None ->
    failwith
      (Printf.sprintf "unknown simulator backend %S; valid: %s%s" s
         (valid ()) (Parse.suggest ~valid:names s))
