//! Option parsing shared by the `moldable`, `moldable-svc` and
//! `moldable-loadgen` binaries.

/// Refuse any argument that is not one of `known` (the options a usage
/// text lists) or the value of one, and a valued option that ends `args`
/// without its value, so neither a misspelled option nor a missing value
/// silently falls back to a default. Options in `switches` take no value;
/// every other option takes the argument after it.
pub fn check_options(args: &[String], known: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !known.contains(&arg.as_str()) {
            return Err(format!("unknown option `{arg}`"));
        }
        if !switches.contains(&arg.as_str()) && rest.next().is_none() {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(())
}

/// The argument after the first `name`, if `name` is given.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}
