type main = Env.t -> int

type t = Env.program = {
  prog_name : string;
  prog_main : main;
  prog_image_bytes : int;
}

type table = Env.programs

let create () = { Env.table = Hashtbl.create 16; lambdas = 0 }

let default_image_bytes = 16 * 1024

let register (tbl : table) ~name ~image_bytes main =
  Hashtbl.replace tbl.table name
    { prog_name = name; prog_main = main; prog_image_bytes = image_bytes }

let register_lambda (tbl : table) ~image_bytes main =
  tbl.lambdas <- tbl.lambdas + 1;
  let name = Printf.sprintf "lambda.%d" tbl.lambdas in
  register tbl ~name ~image_bytes main;
  name

let find (tbl : table) name = Hashtbl.find_opt tbl.table name

let shebang name = "#!m3 " ^ name ^ "\n"

let parse_shebang contents =
  let prefix = "#!m3 " in
  if String.length contents > String.length prefix
     && String.sub contents 0 (String.length prefix) = prefix
  then begin
    let rest =
      String.sub contents (String.length prefix)
        (String.length contents - String.length prefix)
    in
    match String.index_opt rest '\n' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> Some rest
  end
  else None
