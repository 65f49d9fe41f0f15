(* Two generates in one process differ in the auto "s<id>" names drawn
   from the global signal-id counter; renumber them in first-occurrence
   order so textual equality means structural equality. *)
let normalize v =
  let tbl = Hashtbl.create 256 in
  let buf = Buffer.create (String.length v) in
  let n = String.length v in
  let i = ref 0 in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = v.[!i] in
    if c = 's' && (!i = 0 || not (is_word v.[!i - 1])) then begin
      let j = ref (!i + 1) in
      while !j < n && v.[!j] >= '0' && v.[!j] <= '9' do incr j done;
      if !j > !i + 1 && (!j >= n || not (is_word v.[!j])) then begin
        let tok = String.sub v !i (!j - !i) in
        let canon =
          match Hashtbl.find_opt tbl tok with
          | Some c -> c
          | None ->
            let c = Printf.sprintf "s%d" (Hashtbl.length tbl) in
            Hashtbl.add tbl tok c;
            c
        in
        Buffer.add_string buf canon;
        i := !j
      end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf
