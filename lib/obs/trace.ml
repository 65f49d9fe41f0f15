(* Chrome trace_event span export (chrome://tracing / Perfetto "X"
   complete events).  The collector is mutex-guarded so Tl_par pool
   workers can record concurrently; [pool_wrapper] installs spans around
   every pool task with tid = worker ordinal, which is what attributes
   DSE enumeration or fault-campaign work to pool workers in the viewer.

   The library takes the clock as a parameter (a [unit -> float] in
   seconds, e.g. [Unix.gettimeofday] from the CLI or bench executables)
   so it needs no unix dependency of its own. *)

type span = {
  s_name : string;
  s_cat : string;
  s_ts_us : float;
  s_dur_us : float;
  s_tid : int;
  s_args : (string * string) list;
}

type t = { lock : Mutex.t; mutable spans : span list (* newest first *) }

let create () = { lock = Mutex.create (); spans = [] }

let add t ?(cat = "tensorlib") ?(tid = 0) ?(args = []) ~name ~ts_us
    ~dur_us () =
  let s =
    { s_name = name; s_cat = cat; s_ts_us = ts_us; s_dur_us = dur_us;
      s_tid = tid; s_args = args }
  in
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

let span t ~clock ?cat ?tid ?args ~name f =
  let t0 = clock () in
  let finish () =
    let t1 = clock () in
    add t ?cat ?tid ?args ~name ~ts_us:(t0 *. 1e6)
      ~dur_us:((t1 -. t0) *. 1e6) ()
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let pool_wrapper t ~clock =
  { Tl_par.wrap =
      (fun ~label ~domain ~index f ->
        span t ~clock ~cat:"tl_par" ~tid:domain
          ~args:[ ("index", string_of_int index) ]
          ~name:label f) }

let length t =
  Mutex.lock t.lock;
  let n = List.length t.spans in
  Mutex.unlock t.lock;
  n

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  Mutex.lock t.lock;
  let spans = List.rev t.spans in
  Mutex.unlock t.lock;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{ \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      let args =
        match s.s_args with
        | [] -> ""
        | l ->
          Printf.sprintf ", \"args\": { %s }"
            (String.concat ", "
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf "\"%s\": \"%s\"" (json_escape k)
                      (json_escape v))
                  l))
      in
      Buffer.add_string b
        (Printf.sprintf
           "  { \"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": \
            %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d%s }"
           (json_escape s.s_name) (json_escape s.s_cat) s.s_ts_us s.s_dur_us
           s.s_tid args))
    spans;
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\" }\n";
  Buffer.contents b

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json t))
