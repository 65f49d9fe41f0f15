(* Scratch directories for the suites that write stores and CLI output. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh, empty, uniquely named directory, removed with everything in
   it when the process ends. *)
let make prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  at_exit (fun () -> rm_rf path);
  path
