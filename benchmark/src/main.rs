use std::process::ExitCode;

fn main() -> ExitCode {
    ldl1_benchmark::cli::main()
}
