use std::fmt;

#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub fn to_string_pretty<T>(_value: &T) -> Result<String, Error> {
    Err(Error("serialization unavailable in shim build".into()))
}

pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    Err(Error("deserialization unavailable in shim build".into()))
}
