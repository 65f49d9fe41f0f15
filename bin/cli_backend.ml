(* Shared --backend flag handling for the CLI executables: one table of
   simulator backend names, per-command restriction of which are legal,
   and a did-you-mean suggestion when the value is unknown.  Raises
   [Failure] with an actionable message, matching the CLI's [guard]
   convention (exit code 2). *)

open Tensorlib

let all : (string * Sim.backend) list =
  [ ("tape", `Tape); ("batch", `Batch) ]

let names = List.map fst all

(* Levenshtein distance — the candidate set is a few short words, so the
   textbook O(|a|·|b|) table is plenty. *)
let distance a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) Fun.id in
  for i = 1 to la do
    let diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let v = min (min (row.(j) + 1) (row.(j - 1) + 1)) (!diag + cost) in
      diag := row.(j);
      row.(j) <- v
    done
  done;
  row.(lb)

let suggest ~valid s =
  (* reusable did-you-mean fragment for any CLI name set (backends,
     network names, ...); empty when nothing is close enough.  Matching is
     case-insensitive ("TAPE" suggests "tape") but the suggestion always
     shows the candidate's canonical spelling; empty or whitespace-only
     input never gets a suggestion (everything is 1-4 edits from "") *)
  let s = String.trim s in
  if s = "" then ""
  else
    let s = String.lowercase_ascii s in
    let scored =
      List.map (fun c -> (distance s (String.lowercase_ascii c), c)) valid
    in
    let sorted = List.sort compare scored in
    match sorted with
    | (d, c) :: _ when d <= 2 -> Printf.sprintf "; did you mean %S?" c
    | _ -> ""

let suggestion s = suggest ~valid:names s

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
         (valid ()) (suggestion s))
