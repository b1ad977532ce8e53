//! The flag loop the `krb-*` binaries share: a cursor over the command
//! line whose every complaint — a flag without its value, a value that
//! does not parse, an argument nobody knows — is the tool's name, the
//! complaint, the tool's usage line, and exit status 2.

use std::str::FromStr;

/// A cursor over a tool's command-line arguments.
pub struct Args {
    tool: &'static str,
    usage: &'static str,
    rest: std::iter::Skip<std::env::Args>,
}

impl Args {
    /// The process's arguments, for `tool`, whose synopsis is `usage`
    /// (printed after `usage: ` on a complaint).
    pub fn from_env(tool: &'static str, usage: &'static str) -> Self {
        Args { tool, usage, rest: std::env::args().skip(1) }
    }

    /// The next argument, if any is left.
    pub fn next_flag(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The value of `flag`: the next argument, through [`FromStr`].
    /// Exits 2 saying "`flag` needs `what`" when it is missing or does not
    /// parse.
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        self.value_with(flag, what, |v| v.parse().ok())
    }

    /// [`Args::value`] for a value with its own parser (a profile name).
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> T {
        match self.rest.next().as_deref().and_then(parse) {
            Some(v) => v,
            None => self.usage_error(&format!("{flag} needs {what}")),
        }
    }

    /// Exit 2 over an argument that is no flag of this tool.
    pub fn unknown(&self, arg: &str) -> ! {
        self.usage_error(&format!("unknown argument `{arg}`"))
    }

    /// Print the complaint and the usage line to stderr and exit 2.
    pub fn usage_error(&self, complaint: &str) -> ! {
        eprintln!("{}: {complaint}", self.tool);
        eprintln!("usage: {}", self.usage);
        std::process::exit(2)
    }
}
